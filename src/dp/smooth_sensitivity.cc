#include "src/dp/smooth_sensitivity.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "src/common/macros.h"
#include "src/common/parallel.h"
#include "src/graph/node_stats.h"

namespace dpkron {
namespace {

// Sources walked first, in degree-rank order, for the seed frontier.
constexpr size_t kSeedSources = 32;
// Chunk sizes: the O(m) passes take wide chunks; the wedge walk keeps
// narrow ones, since one high-degree source can cost as much as
// thousands of leaves.
constexpr size_t kPassGrain = 2048;
constexpr size_t kWalkGrain = 256;

// The suffix of a sorted adjacency list above node i.
std::span<const Graph::NodeId> Above(std::span<const Graph::NodeId> list,
                                     Graph::NodeId i) {
  return list.subspan(std::upper_bound(list.begin(), list.end(), i) -
                      list.begin());
}

// One cache line per walker: every touched.push_back writes the vector
// header, so adjacent walkers would share a line.
struct alignas(64) Walker {
  std::vector<uint32_t> count;  // per j: common neighbors (+1 if adjacent)
  std::vector<Graph::NodeId> touched;
  std::vector<int64_t> best_b;  // per a: the largest b found, −1 if none
};
static_assert(alignof(Walker) >= 64);

// Folds the exact (a, b) of every pair (i, j) with a common neighbor
// and j ∈ partners(v) for some v ∈ N(i) into walker.best_b. Every v of
// N(i) is visited, so a counts all common neighbors; partners(v) is the
// part of N(v) that i may pair with, and partners(i) names the adjacent
// ones among them. `walker.count` must be n zeros; it is left so.
template <typename Partners>
void WalkSource(GraphView graph, Graph::NodeId i, const Partners& partners,
                Walker& walker) {
  std::vector<uint32_t>& count = walker.count;
  std::vector<Graph::NodeId>& touched = walker.touched;
  const uint64_t degree_i = graph.Degree(i);
  if (walker.best_b.size() <= degree_i) {
    walker.best_b.resize(degree_i + 1, -1);  // a ≤ d_i
  }
  // Adjacent partners open the list with a count of 1, which also keeps
  // the walk from listing them twice.
  for (Graph::NodeId j : partners(i)) {
    count[j] = 1;
    touched.push_back(j);
  }
  const size_t adjacent = touched.size();
  for (Graph::NodeId v : graph.Neighbors(i)) {
    for (Graph::NodeId j : partners(v)) {
      if (count[j]++ == 0) touched.push_back(j);
    }
  }
  for (size_t t = 0; t < touched.size(); ++t) {
    const Graph::NodeId j = touched[t];
    const uint64_t is_edge = t < adjacent ? 1 : 0;
    const uint64_t a = count[j] - is_edge;
    count[j] = 0;
    if (a == 0 || j == i) continue;  // j == i only when partners(v) is N(v)
    // d_i + d_j double-counts the a common neighbors and counts
    // j∈N(i), i∈N(j) when adjacent.
    walker.best_b[a] = std::max(
        walker.best_b[a],
        static_cast<int64_t>(degree_i + graph.Degree(j) - 2 * a - 2 * is_edge));
  }
  touched.clear();
}

// best_b[a] = max(best_b[a], walker's best_b[a]) for every walker.
void MergeWalkers(const std::vector<Walker>& walkers,
                  std::vector<int64_t>& best_b) {
  for (const Walker& walker : walkers) {
    if (best_b.size() < walker.best_b.size()) {
      best_b.resize(walker.best_b.size(), -1);
    }
    for (size_t a = 0; a < walker.best_b.size(); ++a) {
      best_b[a] = std::max(best_b[a], walker.best_b[a]);
    }
  }
}

// The seed sources: the first kSeedSources nodes in degree-rank order
// (degree desc, id asc), cut once their walks have read as many
// adjacency entries as the graph holds (the first is always taken), so
// a dense core costs at most about two full passes.
std::vector<Graph::NodeId> SeedSources(GraphView graph) {
  const auto before = [&graph](Graph::NodeId x, Graph::NodeId y) {
    const uint32_t dx = graph.Degree(x), dy = graph.Degree(y);
    return dx != dy ? dx > dy : x < y;
  };
  std::vector<Graph::NodeId> top;
  for (Graph::NodeId v = 0; v < graph.NumNodes(); ++v) {
    if (top.size() == kSeedSources && !before(v, top.back())) continue;
    top.insert(std::upper_bound(top.begin(), top.end(), v, before), v);
    if (top.size() > kSeedSources) top.pop_back();
  }
  const uint64_t budget = graph.Adjacency().size();
  uint64_t entries = 0;
  size_t taken = 0;
  while (taken < top.size() && entries < budget) {
    for (Graph::NodeId v : graph.Neighbors(top[taken])) {
      entries += graph.Degree(v);
    }
    ++taken;
  }
  top.resize(taken);
  return top;
}

// True iff every class-1 pair of a node of degree d whose 2-hop partners
// all have degree ≤ reach is weakly dominated by a seed point. Such a
// pair has a ≤ min(d, reach) and b ≤ d + reach − 2a; seed_floor[a] is
// the largest seed b at any a' ≥ a (−1 past its end).
bool DominatedBySeeds(uint64_t degree, uint64_t reach,
                      const std::vector<int64_t>& seed_floor) {
  const uint64_t top = std::min(degree, reach);
  if (top >= seed_floor.size()) return false;  // −1 there, below any b
  for (uint64_t a = 1; a <= top; ++a) {
    if (seed_floor[a] < static_cast<int64_t>(degree + reach - 2 * a)) {
      return false;
    }
  }
  return true;
}

// Exact max of d_i + d_j over pairs at hop distance > 2, or `edge_b` if
// no such pair beats it. Sources are visited in degree-rank order
// (degree desc, id asc); a source's best partner is the first later
// rank outside its stamped N≤2, and the search stops once no later pair
// can beat the best sum found. Starting from `edge_b`, the class-2
// maximum a far pair must beat to matter, ends it after one source on a
// star.
// Worst case O(Σ_w d_w²).
int64_t MaxFarPairDegreeSum(GraphView graph, int64_t edge_b) {
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
  int64_t best = edge_b;
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

// best_b over classes 1 and 2 (see the constructor), by the
// certify-and-skip walk the header describes.
std::vector<int64_t> NearPairCandidates(GraphView graph) {
  const uint32_t n = graph.NumNodes();
  std::vector<Walker> walkers(ParallelThreadCount());
  // A worker's counters are sized in the first walk chunk it runs, in
  // the parallel section, and only for workers actually scheduled.
  const auto walker_of = [&walkers, n](const ParallelChunk& chunk) -> Walker& {
    Walker& walker = walkers[chunk.worker];
    if (walker.count.size() != n) walker.count.assign(n, 0);
    return walker;
  };

  // Seed: the top-ranked sources against every 2-hop partner. Their
  // points, folded to a suffix max, are the floor clearing compares to.
  const std::vector<Graph::NodeId> seeds = SeedSources(graph);
  ParallelForChunks(seeds.size(), 1, [&](const ParallelChunk& chunk) {
    Walker& walker = walker_of(chunk);
    for (size_t s = chunk.begin; s < chunk.end; ++s) {
      WalkSource(
          graph, seeds[s],
          [&graph](Graph::NodeId v) { return graph.Neighbors(v); }, walker);
    }
  });
  std::vector<int64_t> best_b(1, -1);
  MergeWalkers(walkers, best_b);
  std::vector<int64_t> seed_floor = best_b;
  for (size_t a = seed_floor.size() - 1; a-- > 0;) {
    seed_floor[a] = std::max(seed_floor[a], seed_floor[a + 1]);
  }

  // M(v) = the largest degree in N(v). Class 2, every edge's
  // (0, d_u + d_v − 2), peaks at max_u d_u + M(u) − 2. For an edge with
  // common neighbors this candidate never raises c(s) above the pair's
  // exact class-1 entry (a shifts it up by at least as much as the
  // larger b would); for one without, it IS the exact value.
  std::vector<uint32_t> max_neighbor_degree(n);
  ParallelForChunks(n, kPassGrain, [&](const ParallelChunk& chunk) {
    int64_t edge_b = -1;
    for (size_t u = chunk.begin; u < chunk.end; ++u) {
      uint32_t max_degree = 0;
      for (Graph::NodeId w : graph.Neighbors(static_cast<Graph::NodeId>(u))) {
        max_degree = std::max(max_degree, graph.Degree(w));
      }
      max_neighbor_degree[u] = max_degree;
      if (max_degree > 0) {
        edge_b = std::max<int64_t>(
            edge_b, int64_t{graph.Degree(static_cast<Graph::NodeId>(u))} +
                        max_degree - 2);
      }
    }
    std::vector<int64_t>& worker_b = walkers[chunk.worker].best_b;
    if (worker_b.empty()) worker_b.assign(1, -1);
    worker_b[0] = std::max(worker_b[0], edge_b);
  });

  // Clear: D(u) = max over v ∈ N(u) of M(v) bounds the degree of every
  // 2-hop partner of u. A node whose staircase the seed floor covers has
  // only dominated class-1 pairs, so no pair with it is walked; every
  // other node stays open.
  std::vector<uint8_t> open(n);
  ParallelForChunks(n, kPassGrain, [&](const ParallelChunk& chunk) {
    for (size_t u = chunk.begin; u < chunk.end; ++u) {
      const Graph::NodeId node = static_cast<Graph::NodeId>(u);
      uint32_t reach = 0;
      for (Graph::NodeId v : graph.Neighbors(node)) {
        reach = std::max(reach, max_neighbor_degree[v]);
      }
      open[u] = !DominatedBySeeds(graph.Degree(node), reach, seed_floor);
    }
  });
  max_neighbor_degree = {};

  // The open-only CSR: each node's open neighbors, still sorted.
  std::vector<uint32_t> open_offsets(size_t{n} + 1, 0);
  ParallelForChunks(n, kPassGrain, [&](const ParallelChunk& chunk) {
    for (size_t v = chunk.begin; v < chunk.end; ++v) {
      uint32_t kept = 0;
      for (Graph::NodeId w : graph.Neighbors(static_cast<Graph::NodeId>(v))) {
        kept += open[w];
      }
      open_offsets[v + 1] = kept;
    }
  });
  std::partial_sum(open_offsets.begin(), open_offsets.end(),
                   open_offsets.begin());
  std::vector<Graph::NodeId> open_adjacency(open_offsets[n]);
  ParallelForChunks(n, kPassGrain, [&](const ParallelChunk& chunk) {
    for (size_t v = chunk.begin; v < chunk.end; ++v) {
      Graph::NodeId* out = open_adjacency.data() + open_offsets[v];
      for (Graph::NodeId w : graph.Neighbors(static_cast<Graph::NodeId>(v))) {
        if (open[w]) *out++ = w;
      }
    }
  });
  const GraphView open_graph(open_offsets, open_adjacency, nullptr);

  // Walk: every open source over all its common neighbors, but only to
  // open partners above it, so each open×open pair is counted once.
  ParallelForChunks(n, kWalkGrain, [&](const ParallelChunk& chunk) {
    Walker& walker = walker_of(chunk);
    for (size_t node = chunk.begin; node < chunk.end; ++node) {
      if (!open[node]) continue;
      const Graph::NodeId i = static_cast<Graph::NodeId>(node);
      WalkSource(
          graph, i,
          [&open_graph, i](Graph::NodeId v) {
            return Above(open_graph.Neighbors(v), i);
          },
          walker);
    }
  });
  MergeWalkers(walkers, best_b);
  return best_b;
}

}  // namespace

TriangleSensitivityProfile::TriangleSensitivityProfile(GraphView graph)
    : num_nodes_(graph.NumNodes()) {
  if (num_nodes_ < 2) return;
  // best_b[a] = the largest b over candidates (a, b), −1 where there is
  // none. Every class folds into it by max, which is order-free, so the
  // profile is identical at any thread count; c_ij(s) is monotone in a
  // and b, so this keeps everything the frontier needs.
  std::vector<int64_t> best_b = NearPairCandidates(graph);

  // Class 3 — pairs at distance > 2 have a = 0, b = d_i + d_j exactly,
  // so only their maximum degree sum matters, and only above the
  // class-2 floor. A far pair with degree sum 0 still matters: s flips
  // can build ⌊s/2⌋ common neighbors for it (this is the whole profile
  // of an empty graph).
  best_b[0] = MaxFarPairDegreeSum(graph, best_b[0]);

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
