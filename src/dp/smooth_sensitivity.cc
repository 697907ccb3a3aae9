#include "src/dp/smooth_sensitivity.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <tuple>

#include "src/common/macros.h"
#include "src/common/parallel.h"
#include "src/common/stat_cache.h"
#include "src/graph/node_stats.h"
#include "src/graph/triangles.h"

namespace dpkron {
namespace {

// True iff i and j are within hop distance 2 (adjacent or sharing a
// neighbor).
bool WithinTwoHops(GraphView graph, Graph::NodeId i, Graph::NodeId j) {
  if (graph.HasEdge(i, j)) return true;
  return CommonNeighbors(graph, i, j) > 0;
}

struct FarPair {
  bool found = false;
  uint64_t degree_sum = 0;
};

// Exact max of d_i + d_j over pairs at distance > 2 (found=false if no
// such pair exists). Best-first walk over pairs of the degree-sorted node
// list; the first far pair found has the maximum sum. Sets *exact to
// false (and returns the conservative top-two sum) if `budget`
// pair-inspections are not enough.
FarPair MaxFarPairDegreeSum(GraphView graph, uint64_t budget,
                            bool* exact) {
  const uint32_t n = graph.NumNodes();
  if (n < 2) return {};
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&graph](uint32_t x, uint32_t y) {
    const uint32_t dx = graph.Degree(x), dy = graph.Degree(y);
    return dx != dy ? dx > dy : x < y;
  });
  auto degree_at = [&](uint32_t rank) {
    return uint64_t{graph.Degree(order[rank])};
  };

  // Max-heap over (sum, rank_i, rank_j) with rank_i < rank_j; the frontier
  // invariant (push (i, j+1) always, (i+1, i+2) when j == i+1) visits each
  // pair at most once in non-increasing sum order.
  using Entry = std::tuple<uint64_t, uint32_t, uint32_t>;
  std::priority_queue<Entry> heap;
  heap.emplace(degree_at(0) + degree_at(1), 0u, 1u);
  uint64_t inspected = 0;
  while (!heap.empty()) {
    const auto [sum, i, j] = heap.top();
    heap.pop();
    if (++inspected > budget) {
      *exact = false;
      return {true, degree_at(0) + degree_at(1)};  // conservative bound
    }
    if (!WithinTwoHops(graph, order[i], order[j])) return {true, sum};
    if (j + 1 < n) heap.emplace(degree_at(i) + degree_at(j + 1), i, j + 1);
    if (j == i + 1 && i + 2 < n) {
      heap.emplace(degree_at(i + 1) + degree_at(i + 2), i + 1, i + 2);
    }
  }
  return {};  // diameter ≤ 2: no far pairs at all
}

// Sorts candidates by a desc then b desc and reduces them in place to
// their Pareto frontier (strictly rising b along falling a). Applying
// this per chunk before the global merge is sound — and idempotent —
// because the frontier of a union equals the frontier of the union of
// the parts' frontiers; it is what keeps the final serial sort off the
// critical path (the raw class-1 candidate list is O(Σ_w deg(w)²)).
void ReduceToFrontier(std::vector<std::pair<uint64_t, uint64_t>>* candidates) {
  std::sort(candidates->begin(), candidates->end(),
            [](const auto& x, const auto& y) {
              return x.first != y.first ? x.first > y.first
                                        : x.second > y.second;
            });
  std::vector<std::pair<uint64_t, uint64_t>> frontier;
  uint64_t best_b = 0;
  bool first = true;
  for (const auto& [a, b] : *candidates) {
    if (first || b > best_b) {
      frontier.emplace_back(a, b);
      best_b = b;
      first = false;
    }
  }
  *candidates = std::move(frontier);
}

}  // namespace

TriangleSensitivityProfile::TriangleSensitivityProfile(GraphView graph)
    : num_nodes_(graph.NumNodes()) {
  const uint32_t n = num_nodes_;
  std::vector<std::pair<uint64_t, uint64_t>> candidates;

  if (n >= 2) {
    // Class 1 — exact (a, b) for every pair with a common neighbor,
    // enumerated per source node with a stamped counter (no pair map).
    // Source nodes are chunked across the pool; each worker owns one
    // stamped-counter buffer (candidate values depend only on the graph,
    // so buffer reuse across chunks is harmless), and per-chunk candidate
    // vectors are concatenated in chunk-index order so the final list —
    // and everything downstream — is thread-count invariant.
    constexpr size_t kGrain = 256;
    struct StampedCounters {
      std::vector<uint32_t> common;
      std::vector<uint32_t> stamp;
      std::vector<Graph::NodeId> touched;
      uint32_t current = 0;
    };
    std::vector<StampedCounters> buffers(ParallelThreadCount());
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> chunk_candidates(
        ParallelChunkCount(n, kGrain));
    ParallelForChunks(n, kGrain, [&](const ParallelChunk& chunk) {
      StampedCounters& buf = buffers[chunk.worker];
      if (buf.stamp.size() != n) {
        // First chunk this worker runs: initialize its buffers here, in
        // the parallel section, and only for workers actually scheduled
        // (pre-zeroing every slot would cost O(threads·N) serially).
        buf.common.assign(n, 0);
        buf.stamp.assign(n, 0);
      }
      auto& out = chunk_candidates[chunk.index];
      for (size_t node = chunk.begin; node < chunk.end; ++node) {
        const Graph::NodeId i = static_cast<Graph::NodeId>(node);
        ++buf.current;
        buf.touched.clear();
        for (Graph::NodeId w : graph.Neighbors(i)) {
          for (Graph::NodeId j : graph.Neighbors(w)) {
            if (j <= i) continue;  // each unordered pair once
            if (buf.stamp[j] != buf.current) {
              buf.stamp[j] = buf.current;
              buf.common[j] = 0;
              buf.touched.push_back(j);
            }
            ++buf.common[j];
          }
        }
        const uint64_t deg_i = graph.Degree(i);
        for (Graph::NodeId j : buf.touched) {
          const uint64_t a = buf.common[j];
          const uint64_t deg_j = graph.Degree(j);
          const uint64_t adjacent = graph.HasEdge(i, j) ? 1 : 0;
          // deg_i + deg_j double-counts the a common neighbors and counts
          // j∈N(i), i∈N(j) when adjacent.
          const uint64_t b = deg_i + deg_j - 2 * a - 2 * adjacent;
          out.emplace_back(a, b);
        }
      }
      // Chunk-local Pareto reduction: shrinks the merge from
      // O(Σ deg²) raw pairs to a handful per chunk, and moves the
      // sort work into the parallel section.
      ReduceToFrontier(&out);
    });
    for (const auto& chunk : chunk_candidates) {
      candidates.insert(candidates.end(), chunk.begin(), chunk.end());
    }

    // Class 2 — every edge: (0, d_u + d_v − 2). For adjacent pairs with
    // common neighbors this candidate is dominated by their exact class-1
    // entry (a shifts the profile up by at least as much as the larger b
    // would); for adjacent pairs without common neighbors it IS the exact
    // value. Either way exactness of the max is preserved.
    graph.ForEachEdge([&](Graph::NodeId u, Graph::NodeId v) {
      candidates.emplace_back(
          0, uint64_t{graph.Degree(u)} + graph.Degree(v) - 2);
    });

    // Class 3 — pairs at distance > 2 have a = 0, b = d_i + d_j exactly.
    // A far pair with degree sum 0 still matters: s flips can build
    // ⌊s/2⌋ common neighbors for it (this is the whole profile of an
    // empty graph).
    const FarPair far = MaxFarPairDegreeSum(graph, /*budget=*/50000, &exact_);
    if (far.found) candidates.emplace_back(0, far.degree_sum);
  }

  // Global Pareto frontier over the (already chunk-reduced) candidates.
  ReduceToFrontier(&candidates);
  frontier_ = std::move(candidates);
}

uint64_t TriangleSensitivityProfile::LocalSensitivityAtDistance(
    uint64_t s) const {
  if (num_nodes_ < 3) return 0;
  const uint64_t cap = num_nodes_ - 2;
  uint64_t best = 0;
  for (const auto& [a, b] : frontier_) {
    const uint64_t raised = a + (s + std::min(s, b)) / 2;
    best = std::max(best, std::min(raised, cap));
    if (best == cap) break;
  }
  return best;
}

double TriangleSensitivityProfile::SmoothSensitivity(double beta) const {
  DPKRON_CHECK_GT(beta, 0.0);
  if (num_nodes_ < 3) return 0.0;
  const uint64_t cap = num_nodes_ - 2;
  double best = 0.0;
  // e^{-βs}·LS^(s) can only decrease once LS^(s) saturates at the cap;
  // LS^(s) grows by at most 1 per step, so the scan is bounded.
  for (uint64_t s = 0;; ++s) {
    const uint64_t ls = LocalSensitivityAtDistance(s);
    best = std::max(best, std::exp(-beta * double(s)) * double(ls));
    if (ls >= cap) break;
    // Even the cap can no longer beat the current best: stop early.
    if (std::exp(-beta * double(s + 1)) * double(cap) <= best) break;
  }
  return best;
}

std::shared_ptr<const TriangleSensitivityProfile>
CachedTriangleSensitivityProfile(GraphView graph) {
  return StatCache::Instance().GetOrComputeDurable<TriangleSensitivityProfile>(
      "triangle_profile",
      CacheKey().Mix(graph.ContentFingerprint()).digest(),
      [&graph] { return TriangleSensitivityProfile(graph); },
      [](const TriangleSensitivityProfile& profile, RecordBuilder& rec) {
        rec.U32(profile.num_nodes()).U32(profile.exact() ? 1 : 0);
        EncodePodVector(rec, profile.frontier());
      },
      [](RecordParser& rec) -> std::optional<TriangleSensitivityProfile> {
        const uint32_t num_nodes = rec.U32();
        const uint32_t exact = rec.U32();
        std::vector<std::pair<uint64_t, uint64_t>> frontier;
        if (!rec.ok() || !DecodePodVector(rec, &frontier)) return std::nullopt;
        return TriangleSensitivityProfile(num_nodes, exact != 0,
                                          std::move(frontier));
      });
}

PrivateTriangleResult PrivateTriangleCount(GraphView graph, double epsilon,
                                           double delta, Rng& rng) {
  return PrivateTriangleCount(graph, TotalTriangles(*CachedNodeStats(graph)),
                              epsilon, delta, rng);
}

PrivateTriangleResult PrivateTriangleCount(GraphView graph, uint64_t triangles,
                                           double epsilon, double delta,
                                           Rng& rng) {
  DPKRON_CHECK_GT(epsilon, 0.0);
  DPKRON_CHECK_GT(delta, 0.0);
  DPKRON_CHECK_LT(delta, 1.0);
  PrivateTriangleResult result;
  result.beta = epsilon / (2.0 * std::log(2.0 / delta));
  // The profile is the expensive, ε-independent half of the mechanism;
  // evaluating SS_β at this run's β is a cheap scan over its frontier.
  const auto profile = CachedTriangleSensitivityProfile(graph);
  result.smooth_sensitivity = profile->SmoothSensitivity(result.beta);
  result.exact_sensitivity = profile->exact();
  result.exact = static_cast<double>(triangles);
  result.value = result.exact +
                 2.0 * result.smooth_sensitivity / epsilon * rng.NextLaplace(1.0);
  return result;
}

}  // namespace dpkron
