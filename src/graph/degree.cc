#include "src/graph/degree.h"

#include <algorithm>

#include "src/common/parallel.h"

namespace dpkron {
namespace {

// Degree reads are O(1) array lookups; coarse chunks keep the dispatch
// overhead negligible while still covering million-node graphs.
constexpr size_t kDegreeGrain = 4096;

}  // namespace

std::vector<uint32_t> DegreeVector(GraphView graph) {
  graph.CountPass("degree_vector");
  const uint32_t n = graph.NumNodes();
  std::vector<uint32_t> degrees(n);
  ParallelFor(n, kDegreeGrain, [&](size_t u) {
    degrees[u] = graph.Degree(static_cast<Graph::NodeId>(u));
  });
  return degrees;
}

uint32_t MaxDegree(GraphView graph) {
  graph.CountPass("max_degree");
  const uint32_t n = graph.NumNodes();
  std::vector<uint32_t> partials(ParallelChunkCount(n, kDegreeGrain), 0);
  ParallelForChunks(n, kDegreeGrain, [&](const ParallelChunk& chunk) {
    uint32_t local = 0;
    for (size_t u = chunk.begin; u < chunk.end; ++u) {
      local = std::max(local, graph.Degree(static_cast<Graph::NodeId>(u)));
    }
    partials[chunk.index] = local;
  });
  uint32_t max_degree = 0;
  for (uint32_t partial : partials) max_degree = std::max(max_degree, partial);
  return max_degree;
}

std::vector<std::pair<uint32_t, uint64_t>> DegreeHistogramFromDegrees(
    const std::vector<uint32_t>& degrees) {
  uint32_t max_degree = 0;
  for (uint32_t d : degrees) max_degree = std::max(max_degree, d);
  std::vector<uint64_t> counts(size_t(max_degree) + 1, 0);
  for (uint32_t d : degrees) ++counts[d];
  std::vector<std::pair<uint32_t, uint64_t>> histogram;
  for (uint32_t d = 0; d < counts.size(); ++d) {
    if (counts[d] > 0) histogram.emplace_back(d, counts[d]);
  }
  return histogram;
}

double EdgesFromDegrees(const std::vector<double>& degrees) {
  double sum = 0.0;
  for (double d : degrees) sum += d;
  return sum / 2.0;
}

double HairpinsFromDegrees(const std::vector<double>& degrees) {
  double sum = 0.0;
  for (double d : degrees) sum += d * (d - 1.0);
  return sum / 2.0;
}

double TripinsFromDegrees(const std::vector<double>& degrees) {
  double sum = 0.0;
  for (double d : degrees) sum += d * (d - 1.0) * (d - 2.0);
  return sum / 6.0;
}

uint64_t CountWedges(GraphView graph) {
  graph.CountPass("wedges");
  const uint32_t n = graph.NumNodes();
  std::vector<uint64_t> partials(ParallelChunkCount(n, kDegreeGrain), 0);
  ParallelForChunks(n, kDegreeGrain, [&](const ParallelChunk& chunk) {
    uint64_t local = 0;
    for (size_t u = chunk.begin; u < chunk.end; ++u) {
      const uint64_t d = graph.Degree(static_cast<Graph::NodeId>(u));
      local += d * (d - 1) / 2;
    }
    partials[chunk.index] = local;
  });
  uint64_t wedges = 0;
  for (uint64_t partial : partials) wedges += partial;
  return wedges;
}

uint64_t CountTripins(GraphView graph) {
  graph.CountPass("tripins");
  const uint32_t n = graph.NumNodes();
  std::vector<uint64_t> partials(ParallelChunkCount(n, kDegreeGrain), 0);
  ParallelForChunks(n, kDegreeGrain, [&](const ParallelChunk& chunk) {
    uint64_t local = 0;
    for (size_t u = chunk.begin; u < chunk.end; ++u) {
      const uint64_t d = graph.Degree(static_cast<Graph::NodeId>(u));
      local += d * (d - 1) * (d - 2) / 6;
    }
    partials[chunk.index] = local;
  });
  uint64_t tripins = 0;
  for (uint64_t partial : partials) tripins += partial;
  return tripins;
}

}  // namespace dpkron
