// Differentially private matching statistics ~F = (Ẽ, H̃, T̃, ∆̃) —
// steps 1–5 of Algorithm 1 plus the Theorem 4.9 composition accounting.
//
// Budget split (as in Algorithm 1): the degree sequence gets (ε/2, 0)
// and the triangle count gets (ε/2, δ), so ~F is (ε, δ)-private overall.
//
// Steps 1–3 (the n Laplace draws, the isotonic fit and Ẽ, H̃, T̃) are
// memoized in the StatCache's "degree_release" domain, keyed by the
// graph, ε/2, the degree options and the Rng's state: a repeated
// (graph, ε, seed) release replays Ẽ, H̃, T̃ and the stream position
// instead of redrawing. Only the released values are stored. The budget
// is charged before the lookup, so a replay charges what a recompute
// charges, and a failure is never stored.

#ifndef DPKRON_DP_PRIVATE_FEATURES_H_
#define DPKRON_DP_PRIVATE_FEATURES_H_

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/dp/degree_sequence.h"
#include "src/dp/privacy_budget.h"
#include "src/estimation/features.h"
#include "src/graph/graph_view.h"

namespace dpkron {

struct PrivateFeaturesOptions {
  PrivateDegreeOptions degrees;
  // Counts below this are clamped up before fitting (post-processing;
  // negative or zero counts carry no signal for moment matching).
  double feature_floor = 1.0;
};

struct PrivateFeaturesResult {
  GraphFeatures features;       // clamped, ready for the estimator
  GraphFeatures raw;            // pre-clamp (diagnostics)
  // The exact F(G) — a function of the sensitive graph, NOT private;
  // do not publish (see PrivateEstimatorResult::exact_features).
  GraphFeatures exact;
  double smooth_sensitivity = 0.0;  // SS_{β,∆}(G) used for ∆̃
  double beta = 0.0;
};

// Computes ~F with privacy charges drawn from `budget` (one for the
// degree sequence, one for the triangle count). Fails without touching
// the graph if the budget cannot cover (epsilon, delta). The result and
// the draws `rng` makes afterwards are the same whether steps 1–3 ran
// or were replayed from the StatCache.
Result<PrivateFeaturesResult> ComputePrivateFeatures(
    GraphView graph, double epsilon, double delta, PrivacyBudget& budget,
    Rng& rng, const PrivateFeaturesOptions& options = {});

// Convenience overload that provisions a fresh (epsilon, delta) budget.
Result<PrivateFeaturesResult> ComputePrivateFeatures(
    GraphView graph, double epsilon, double delta, Rng& rng,
    const PrivateFeaturesOptions& options = {});

}  // namespace dpkron

#endif  // DPKRON_DP_PRIVATE_FEATURES_H_
