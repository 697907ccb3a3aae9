// Hay, Li, Miklau & Jensen (ICDM'09): differentially private estimation of
// a graph's degree sequence — step 2 of Algorithm 1.
//
// The sorted degree sequence d_S has global sensitivity 2 under edge
// neighborhood (adding/removing one edge moves two degrees by one, and
// sorting cannot increase L1 distance), so
//     d̂ = d_S + ⟨Lap(2/ε)⟩^N
// is (ε, 0)-private, and the constrained-inference post-processing
// (isotonic L2 projection, see isotonic.h) yields the accuracy-boosted d̃.

#ifndef DPKRON_DP_DEGREE_SEQUENCE_H_
#define DPKRON_DP_DEGREE_SEQUENCE_H_

#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/graph/graph_view.h"

namespace dpkron {

// Global L1 sensitivity of the sorted degree sequence (edge neighbors).
inline constexpr double kDegreeSequenceSensitivity = 2.0;

struct PrivateDegreeOptions {
  // Apply the Hay et al. constrained inference (isotonic projection).
  bool postprocess = true;
  // Clamp the final estimates into the feasible degree range [0, N−1]
  // (also pure post-processing).
  bool clamp_to_range = true;
};

// (ε, 0)-differentially private estimate of the sorted degree sequence.
// InvalidArgument on a degenerate ε (≤ 0, non-finite) — a data-dependent
// condition a sweep can reach, so it surfaces as a Status the run
// report records, not a process abort.
Result<std::vector<double>> PrivateDegreeSequence(
    GraphView graph, double epsilon, Rng& rng,
    const PrivateDegreeOptions& options = {});

// The same mechanism applied to a pre-sorted degree vector: callers that
// already hold the graph's node stats (ComputePrivateFeatures) and tests
// that drive it without a Graph.
Result<std::vector<double>> PrivatizeSortedDegrees(
    const std::vector<uint32_t>& sorted_degrees, double epsilon,
    uint32_t num_nodes, Rng& rng, const PrivateDegreeOptions& options = {});

}  // namespace dpkron

#endif  // DPKRON_DP_DEGREE_SEQUENCE_H_
