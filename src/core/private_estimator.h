// Algorithm 1 — the paper's contribution: an (ε, δ)-differentially
// private estimator Θ̃ of the SKG initiator matrix of a sensitive graph.
//
//   1. compute the degree vector of G;
//   2. privatize it with Hay et al. at ε/2            (dp/degree_sequence);
//   3. derive Ẽ, H̃, T̃ from the noisy degrees          (estimation/features);
//   4. compute the smooth sensitivity of ∆            (dp/smooth_sensitivity);
//   5. privatize ∆ at (ε/2, δ)                        (dp/smooth_sensitivity);
//   6. run the Gleich–Owen moment estimator on ~F     (estimation/kronmom).
//
// Everything after steps 2 & 5 is post-processing of private values, so
// Θ̃ is (ε, δ)-differentially private (Corollary 4.11).

#ifndef DPKRON_CORE_PRIVATE_ESTIMATOR_H_
#define DPKRON_CORE_PRIVATE_ESTIMATOR_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/dp/private_features.h"
#include "src/estimation/kronmom.h"
#include "src/graph/graph_view.h"
#include "src/skg/initiator.h"

namespace dpkron {

struct PrivateEstimatorOptions {
  PrivateFeaturesOptions features;
  KronMomOptions kronmom;
};

struct PrivateEstimatorResult {
  Initiator2 theta;               // Θ̃, safe to publish
  uint32_t k = 0;                 // model order, public
  double objective = 0.0;         // Eq. (2) value at Θ̃ (vs private features)
  GraphFeatures private_features; // ~F, safe to publish
  // Diagnostics — functions of the sensitive graph; NOT private, do not
  // publish (exposed for experiments that compare against ground truth).
  GraphFeatures exact_features;
  double smooth_sensitivity = 0.0;
  bool converged = false;
};

// Runs Algorithm 1 on `graph` with privacy parameters (epsilon, delta) at
// Kronecker order ChooseKroneckerOrder(NumNodes()), charging the two
// mechanism invocations to `budget`.
Result<PrivateEstimatorResult> EstimatePrivateSkg(
    GraphView graph, double epsilon, double delta, PrivacyBudget& budget,
    Rng& rng, const PrivateEstimatorOptions& options = {});

// Convenience overload provisioning a fresh (epsilon, delta) budget.
Result<PrivateEstimatorResult> EstimatePrivateSkg(
    GraphView graph, double epsilon, double delta, Rng& rng,
    const PrivateEstimatorOptions& options = {});

}  // namespace dpkron

#endif  // DPKRON_CORE_PRIVATE_ESTIMATOR_H_
