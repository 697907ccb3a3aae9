// Smooth-sensitivity mechanisms for star counts (hairpins H and tripins
// T), in the spirit of Karwa, Raskhodnikova, Smith & Yaroslavtsev
// (PVLDB'11), which the paper cites as the route to private k-star
// statistics.
//
// Algorithm 1 gets H̃ and T̃ indirectly from the private degree sequence;
// this module privatizes them *directly*, enabling the
// `ablation_feature_route` experiment that quantifies why the paper's
// degree-based route wins.
//
// Sensitivity bounds (d(1) ≥ d(2) are the two largest degrees, n nodes):
//   * edges E: global sensitivity 1 (plain Laplace mechanism);
//   * hairpins H: flipping {i,j} changes H by d_i + d_j (pre-flip
//     degrees, adding) or (d_i−1) + (d_j−1) (removing); s extra flips
//     raise the top pair sum by ≤ 2s, giving the β-smooth upper bound
//       SS_H ≤ max_s e^{−βs} · min(d(1) + d(2) + 2s, 2n − 2);
//   * tripins T: flipping {i,j} changes T by C(d_i,2) + C(d_j,2); each
//     flip raises a degree by ≤ 1, so
//       SS_T ≤ max_s e^{−βs} · min(C(d(1)+s, 2) + C(d(2)+s, 2),
//                                   (n−1)(n−2)).
// Both bounds satisfy the smoothness condition exactly (the +2s / +s
// growth dominates the ±1 movement of the top degrees across an edge
// flip), so Theorem 4.8 applies.

#ifndef DPKRON_DP_STAR_SENSITIVITY_H_
#define DPKRON_DP_STAR_SENSITIVITY_H_

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/dp/privacy_budget.h"
#include "src/estimation/features.h"
#include "src/graph/graph_view.h"

namespace dpkron {

// β-smooth upper bound on the sensitivity of the wedge count H.
double SmoothSensitivityWedges(GraphView graph, double beta);

// β-smooth upper bound on the sensitivity of the tripin count T.
double SmoothSensitivityTripins(GraphView graph, double beta);

struct PrivateCountResult {
  double value = 0.0;
  double smooth_sensitivity = 0.0;
  double beta = 0.0;
};

// (ε, δ)-private wedge / tripin counts via Theorem 4.8, around the
// exact count of `graph`: `wedges` / `tripins` must be the hairpins /
// tripins of FeaturesFromNodeStats over the graph's node stats.
PrivateCountResult PrivateWedgeCount(GraphView graph, double wedges,
                                     double epsilon, double delta, Rng& rng);
PrivateCountResult PrivateTripinCount(GraphView graph, double tripins,
                                      double epsilon, double delta, Rng& rng);

// The "direct route" feature vector: E via the Laplace mechanism (global
// sensitivity 1) at ε/4, and H, T, ∆ via their smooth-sensitivity
// mechanisms at (ε/4, δ/3) each — (ε, δ) in total by Theorem 4.9.
// Contrast with ComputePrivateFeatures (Algorithm 1's degree route).
Result<GraphFeatures> ComputeDirectPrivateFeatures(GraphView graph,
                                                   double epsilon,
                                                   double delta,
                                                   PrivacyBudget& budget,
                                                   Rng& rng,
                                                   double feature_floor = 1.0);

}  // namespace dpkron

#endif  // DPKRON_DP_STAR_SENSITIVITY_H_
