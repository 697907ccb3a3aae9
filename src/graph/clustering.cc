#include "src/graph/clustering.h"

#include <algorithm>

#include "src/common/macros.h"
#include "src/common/parallel.h"

namespace dpkron {
namespace {

// c_u, for d_u ≥ 2.
double ClusteringCoefficient(uint32_t degree, uint64_t triangles) {
  return 2.0 * static_cast<double>(triangles) /
         (double(degree) * (degree - 1));
}

}  // namespace

double AverageClusteringFromParts(const std::vector<uint32_t>& degrees,
                                  const std::vector<uint64_t>& triangles) {
  DPKRON_CHECK_EQ(degrees.size(), triangles.size());
  const size_t n = degrees.size();
  // Chunk-ordered partial sums: the double reduction is a fixed function
  // of (n, grain), so the result is thread-count-invariant.
  constexpr size_t kGrain = 4096;
  std::vector<double> sums(ParallelChunkCount(n, kGrain), 0.0);
  std::vector<uint64_t> counts(sums.size(), 0);
  ParallelForChunks(n, kGrain, [&](const ParallelChunk& chunk) {
    double sum = 0.0;
    uint64_t eligible = 0;
    for (size_t u = chunk.begin; u < chunk.end; ++u) {
      if (degrees[u] >= 2) {
        sum += ClusteringCoefficient(degrees[u], triangles[u]);
        ++eligible;
      }
    }
    sums[chunk.index] = sum;
    counts[chunk.index] = eligible;
  });
  double sum = 0.0;
  uint64_t eligible = 0;
  for (size_t chunk = 0; chunk < sums.size(); ++chunk) {
    sum += sums[chunk];
    eligible += counts[chunk];
  }
  return eligible == 0 ? 0.0 : sum / static_cast<double>(eligible);
}

std::vector<std::pair<uint32_t, double>> ClusteringByDegreeFromParts(
    const std::vector<uint32_t>& degrees,
    const std::vector<uint64_t>& triangles) {
  DPKRON_CHECK_EQ(degrees.size(), triangles.size());
  uint32_t max_degree = 0;
  for (uint32_t d : degrees) max_degree = std::max(max_degree, d);
  // The by-degree aggregation is a cheap O(n) pass over already-computed
  // values; the double sums stay sequential (and therefore exactly
  // ordered) rather than paying per-degree chunked reductions.
  std::vector<double> sum(size_t(max_degree) + 1, 0.0);
  std::vector<uint64_t> count(size_t(max_degree) + 1, 0);
  for (size_t u = 0; u < degrees.size(); ++u) {
    const uint32_t d = degrees[u];
    if (d >= 2) {
      sum[d] += ClusteringCoefficient(d, triangles[u]);
      ++count[d];
    }
  }
  std::vector<std::pair<uint32_t, double>> by_degree;
  for (uint32_t d = 2; d <= max_degree; ++d) {
    if (count[d] > 0) {
      by_degree.emplace_back(d, sum[d] / static_cast<double>(count[d]));
    }
  }
  return by_degree;
}

}  // namespace dpkron
