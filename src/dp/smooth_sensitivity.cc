#include "src/dp/smooth_sensitivity.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/common/macros.h"
#include "src/common/parallel.h"
#include "src/graph/node_stats.h"

namespace dpkron {
namespace {

// The suffix of a sorted adjacency list above node i.
std::span<const Graph::NodeId> Above(std::span<const Graph::NodeId> list,
                                     Graph::NodeId i) {
  return list.subspan(std::upper_bound(list.begin(), list.end(), i) -
                      list.begin());
}

// Exact max of d_i + d_j over pairs at hop distance > 2, or −1 if the
// graph has no such pair. Sources are visited in degree-rank order
// (degree desc, id asc); a source's best partner is the first later rank
// outside its stamped N≤2, and the search stops once no later pair can
// beat the best sum found. Worst case O(Σ_w d_w²), the class-1 walk's
// own cost.
int64_t MaxFarPairDegreeSum(GraphView graph) {
  const uint32_t n = graph.NumNodes();
  // Degree ranks by a stable counting sort over descending degree.
  uint32_t max_degree = 0;
  for (Graph::NodeId v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, graph.Degree(v));
  }
  std::vector<uint32_t> slot(size_t{max_degree} + 2, 0);
  for (Graph::NodeId v = 0; v < n; ++v) {
    ++slot[max_degree - graph.Degree(v) + 1];
  }
  for (size_t d = 1; d < slot.size(); ++d) slot[d] += slot[d - 1];
  std::vector<Graph::NodeId> order(n);
  for (Graph::NodeId v = 0; v < n; ++v) {
    order[slot[max_degree - graph.Degree(v)]++] = v;
  }

  // stamp[v] == r + 1 ⇔ v ∈ N≤2(order[r]).
  std::vector<uint32_t> stamp(n, 0);
  int64_t best = -1;
  for (uint32_t r = 0; r + 1 < n; ++r) {
    const Graph::NodeId i = order[r];
    const int64_t degree_i = graph.Degree(i);
    if (degree_i + graph.Degree(order[r + 1]) <= best) break;
    const uint32_t mark = r + 1;
    stamp[i] = mark;
    for (Graph::NodeId w : graph.Neighbors(i)) {
      stamp[w] = mark;
      for (Graph::NodeId x : graph.Neighbors(w)) stamp[x] = mark;
    }
    for (uint32_t q = r + 1; q < n; ++q) {
      const int64_t sum = degree_i + graph.Degree(order[q]);
      if (sum <= best) break;
      if (stamp[order[q]] != mark) {
        best = sum;
        break;
      }
    }
  }
  return best;
}

}  // namespace

TriangleSensitivityProfile::TriangleSensitivityProfile(GraphView graph)
    : num_nodes_(graph.NumNodes()) {
  const uint32_t n = num_nodes_;
  if (n < 2) return;

  // best_b[a] = the largest b over candidates (a, b), −1 where there is
  // none. Every class folds into it; c_ij(s) is monotone in a and b, so
  // this keeps everything the frontier needs.
  //
  // Class 1 — exact (a, b) for every pair with a common neighbor, walked
  // per source node i over its 2-paths i–v–j with j > i. Source nodes are
  // chunked across the pool; each worker owns one counter array and one
  // best_b array, and the max merge below is order-free, so the profile
  // is identical at any thread count.
  //
  // Class 2 — every edge: (0, d_u + d_v − 2). For adjacent pairs with
  // common neighbors this candidate is dominated by their exact class-1
  // entry (a shifts the profile up by at least as much as the larger b
  // would); for adjacent pairs without common neighbors it IS the exact
  // value. Either way exactness of the max is preserved.
  constexpr size_t kGrain = 256;
  // One cache line per walker: every touched.push_back writes the
  // vector header, so adjacent walkers would share a line.
  struct alignas(64) Walker {
    std::vector<uint32_t> count;  // per j: common neighbors (+1 if adjacent)
    std::vector<Graph::NodeId> touched;
    std::vector<int64_t> best_b;
  };
  static_assert(alignof(Walker) >= 64);
  std::vector<Walker> walkers(ParallelThreadCount());
  ParallelForChunks(n, kGrain, [&](const ParallelChunk& chunk) {
    Walker& walker = walkers[chunk.worker];
    // First chunk this worker runs: size its counters here, in the
    // parallel section, and only for workers actually scheduled.
    if (walker.count.size() != n) walker.count.assign(n, 0);
    std::vector<uint32_t>& count = walker.count;
    std::vector<Graph::NodeId>& touched = walker.touched;
    for (size_t node = chunk.begin; node < chunk.end; ++node) {
      const Graph::NodeId i = static_cast<Graph::NodeId>(node);
      const uint64_t degree_i = graph.Degree(i);
      if (walker.best_b.size() <= degree_i) {
        walker.best_b.resize(degree_i + 1, -1);  // a ≤ d_i
      }
      // Neighbors above i open the list with a count of 1: their pairs
      // are edges, and a nonzero count keeps the walk from listing them
      // twice. Adjacency lists are sorted, so "above i" is a suffix.
      const auto neighbors = graph.Neighbors(i);
      for (Graph::NodeId j : Above(neighbors, i)) {
        count[j] = 1;
        touched.push_back(j);
      }
      const size_t adjacent = touched.size();
      for (Graph::NodeId v : neighbors) {
        for (Graph::NodeId j : Above(graph.Neighbors(v), i)) {
          if (count[j]++ == 0) touched.push_back(j);
        }
      }
      for (size_t t = 0; t < touched.size(); ++t) {
        const Graph::NodeId j = touched[t];
        const uint64_t is_edge = t < adjacent ? 1 : 0;
        const uint64_t a = count[j] - is_edge;
        count[j] = 0;
        const uint64_t degree_sum = degree_i + graph.Degree(j);
        if (is_edge) {
          walker.best_b[0] = std::max(walker.best_b[0],
                                      static_cast<int64_t>(degree_sum - 2));
        }
        if (a == 0) continue;
        // d_i + d_j double-counts the a common neighbors and counts
        // j∈N(i), i∈N(j) when adjacent.
        walker.best_b[a] = std::max(
            walker.best_b[a],
            static_cast<int64_t>(degree_sum - 2 * a - 2 * is_edge));
      }
      touched.clear();
    }
  });
  std::vector<int64_t> best_b(1, -1);
  for (const Walker& walker : walkers) {
    if (best_b.size() < walker.best_b.size()) {
      best_b.resize(walker.best_b.size(), -1);
    }
    for (size_t a = 0; a < walker.best_b.size(); ++a) {
      best_b[a] = std::max(best_b[a], walker.best_b[a]);
    }
  }

  // Class 3 — pairs at distance > 2 have a = 0, b = d_i + d_j exactly,
  // so only their maximum degree sum matters. A far pair with degree sum
  // 0 still matters: s flips can build ⌊s/2⌋ common neighbors for it
  // (this is the whole profile of an empty graph).
  best_b[0] = std::max(best_b[0], MaxFarPairDegreeSum(graph));

  // The Pareto frontier: falling a, strictly rising b.
  int64_t rising = -1;
  for (size_t a = best_b.size(); a-- > 0;) {
    if (best_b[a] > rising) {
      rising = best_b[a];
      frontier_.emplace_back(a, static_cast<uint64_t>(rising));
    }
  }
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

// Layout 2 is (num_nodes, frontier). Layout 1 — (num_nodes, exact flag,
// frontier), keyed by the fingerprint alone — is never addressed, so it
// cannot misdecode.
const CacheDomain<TriangleSensitivityProfile> kTriangleProfileDomain{
    "triangle_profile", 2,
    [](const TriangleSensitivityProfile& profile, RecordBuilder& rec) {
      rec.U32(profile.num_nodes());
      EncodePodVector(rec, profile.frontier());
    },
    [](RecordParser& rec) -> std::optional<TriangleSensitivityProfile> {
      const uint32_t num_nodes = rec.U32();
      std::vector<std::pair<uint64_t, uint64_t>> frontier;
      if (!rec.ok() || !DecodePodVector(rec, &frontier)) return std::nullopt;
      return TriangleSensitivityProfile(num_nodes, std::move(frontier));
    }};

std::shared_ptr<const TriangleSensitivityProfile>
CachedTriangleSensitivityProfile(GraphView graph) {
  return StatCache::Instance().Memoize(
      kTriangleProfileDomain, CacheKey().Mix(graph.ContentFingerprint()),
      [&graph] { return TriangleSensitivityProfile(graph); });
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
  result.exact = static_cast<double>(triangles);
  result.value = result.exact +
                 2.0 * result.smooth_sensitivity / epsilon * rng.NextLaplace(1.0);
  return result;
}

}  // namespace dpkron
