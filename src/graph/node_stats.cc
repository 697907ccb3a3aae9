#include "src/graph/node_stats.h"

#include "src/graph/degree.h"
#include "src/graph/triangles.h"

namespace dpkron {

NodeStats ComputeNodeStats(GraphView graph) {
  graph.CountPass("node_stats");
  NodeStats stats;
  // One sweep of the view's adjacency builds the forward orientation
  // AND the degree vector; the triangle intersections then run over the
  // compact in-RAM forward CSR, never re-reading the backing store.
  const internal::ForwardCsr fwd =
      internal::BuildForwardCsrFused(graph, &stats.degrees);
  stats.triangles =
      internal::PerNodeTrianglesFromForward(fwd, graph.NumNodes());
  return stats;
}

const CacheDomain<NodeStats> kNodeStatsDomain{
    "node_stats", 1,
    [](const NodeStats& value, RecordBuilder& rec) {
      EncodePodVector(rec, value.degrees);
      EncodePodVector(rec, value.triangles);
    },
    [](RecordParser& rec) -> std::optional<NodeStats> {
      NodeStats value;
      if (!DecodePodVector(rec, &value.degrees) ||
          !DecodePodVector(rec, &value.triangles)) {
        return std::nullopt;
      }
      return value;
    }};

std::shared_ptr<const NodeStats> CachedNodeStats(GraphView graph) {
  return StatCache::Instance().Memoize(
      kNodeStatsDomain, CacheKey().Mix(graph.ContentFingerprint()),
      [&graph] { return ComputeNodeStats(graph); });
}

std::vector<uint32_t> SortedDegrees(const NodeStats& stats) {
  std::vector<uint32_t> sorted;
  sorted.reserve(stats.degrees.size());
  for (const auto& [degree, count] :
       DegreeHistogramFromDegrees(stats.degrees)) {
    sorted.insert(sorted.end(), count, degree);
  }
  return sorted;
}

uint64_t TotalTriangles(const NodeStats& stats) {
  uint64_t corners = 0;
  for (uint64_t t : stats.triangles) corners += t;
  return corners / 3;
}

}  // namespace dpkron
