// The fused per-node statistics pass and the one cache entry behind a
// whole release.
//
// Every deterministic per-graph input of Algorithm 1 and of the degree /
// triangle / clustering panels derives from d_u and t_u: the sorted
// degree sequence, Δ = Σ t_u / 3, the exact features E, H, T, Δ, the
// degree histogram and the clustering coefficients (t_u over the wedge
// count d_u(d_u-1)/2). A single traversal derives the degrees from the
// offsets array and builds the rank-oriented forward lists whose
// intersections yield t_u — the intersections then run over the compact
// forward CSR, not the view, so the whole family costs ONE pass over the
// backing store. CachedNodeStats is the one StatCache domain that holds
// them ("node_stats", durable, keyed by the content fingerprint).
//
// This is the graph's one pass plan: every whole-graph degree, star,
// triangle, feature and clustering statistic (FeaturesFromNodeStats,
// SortedDegrees, TotalTriangles, DegreeHistogramFromDegrees, the
// clustering *FromParts functions) is read from a NodeStats, and no
// per-statistic walker exists beside it.
//
// Pass accounting: ComputeNodeStats records exactly one "node_stats"
// pass on the view and nothing else; tests pin this so a regression
// that un-fuses the family fails loudly.
//
// Determinism: degrees are exact integers read off the offsets;
// triangle counts are exact integers, the same on every dispatch path
// (scalar and AVX2 agree bit-for-bit on integer counts). NodeStats is
// therefore byte-identical across backings (in-RAM vs mmap) and thread
// counts.

#ifndef DPKRON_GRAPH_NODE_STATS_H_
#define DPKRON_GRAPH_NODE_STATS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/stat_cache.h"
#include "src/graph/graph_view.h"

namespace dpkron {

struct NodeStats {
  std::vector<uint32_t> degrees;    // d_u
  std::vector<uint64_t> triangles;  // t_u (clustering numerators)

  bool operator==(const NodeStats&) const = default;
};

// StatCache byte-budget accounting (common/stat_cache.h).
inline size_t ApproxCacheBytes(const NodeStats& stats) {
  return sizeof(stats) + stats.degrees.capacity() * sizeof(uint32_t) +
         stats.triangles.capacity() * sizeof(uint64_t);
}

// One fused CSR traversal: degrees + per-node triangle counts, recorded
// as a single "node_stats" pass.
NodeStats ComputeNodeStats(GraphView graph);

// ComputeNodeStats served through the process-wide StatCache when it is
// enabled (durably, with a disk tier attached); in-RAM and mmap backings
// of the same CSR bytes share the entry. Otherwise a plain computation.
std::shared_ptr<const NodeStats> CachedNodeStats(GraphView graph);
// Its StatCache domain: bump the layout whenever ComputeNodeStats's
// output changes (tests/stat_cache_test.cc pins it beside a digest).
extern const CacheDomain<NodeStats> kNodeStatsDomain;

// The degrees in ascending order (the paper's d_S), expanded from their
// histogram in O(n + max degree).
std::vector<uint32_t> SortedDegrees(const NodeStats& stats);

// Δ = Σ t_u / 3: each triangle is counted once at each of its corners.
uint64_t TotalTriangles(const NodeStats& stats);

}  // namespace dpkron

#endif  // DPKRON_GRAPH_NODE_STATS_H_
