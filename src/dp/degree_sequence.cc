#include "src/dp/degree_sequence.h"

#include <algorithm>

#include "src/dp/isotonic.h"
#include "src/dp/laplace_mechanism.h"
#include "src/graph/node_stats.h"

namespace dpkron {

Result<std::vector<double>> PrivatizeSortedDegrees(
    const std::vector<uint32_t>& sorted_degrees, double epsilon,
    uint32_t num_nodes, Rng& rng, const PrivateDegreeOptions& options) {
  // One vector-Laplace mechanism in the codebase: the noising and its
  // degenerate-parameter validation live in AddLaplaceNoiseVector.
  const std::vector<double> values(sorted_degrees.begin(),
                                   sorted_degrees.end());
  auto noisy_result = AddLaplaceNoiseVector(
      values, kDegreeSequenceSensitivity, epsilon, rng);
  if (!noisy_result.ok()) return noisy_result.status();
  std::vector<double> noisy = std::move(noisy_result).value();
  if (options.postprocess) {
    noisy = IsotonicRegression(noisy);
  }
  if (options.clamp_to_range) {
    const double max_degree =
        num_nodes > 0 ? static_cast<double>(num_nodes - 1) : 0.0;
    for (double& d : noisy) d = std::clamp(d, 0.0, max_degree);
  }
  return noisy;
}

Result<std::vector<double>> PrivateDegreeSequence(
    GraphView graph, double epsilon, Rng& rng,
    const PrivateDegreeOptions& options) {
  // The sorted degree sequence is the deterministic half of the
  // mechanism; only the noise depends on (ε, rng). It is expanded from
  // the graph's cached node stats, so an ε/seed sweep walks the CSR
  // once per graph.
  return PrivatizeSortedDegrees(SortedDegrees(*CachedNodeStats(graph)),
                                epsilon, graph.NumNodes(), rng, options);
}

}  // namespace dpkron
