#include "src/core/private_estimator.h"

#include "src/common/macros.h"

namespace dpkron {

Result<PrivateEstimatorResult> EstimatePrivateSkg(
    GraphView graph, double epsilon, double delta, PrivacyBudget& budget,
    Rng& rng, const PrivateEstimatorOptions& options) {
  if (graph.NumNodes() < 2) {
    return Status::InvalidArgument("graph must have at least 2 nodes");
  }
  Result<PrivateFeaturesResult> features = ComputePrivateFeatures(
      graph, epsilon, delta, budget, rng, options.features);
  if (!features.ok()) return features.status();

  const uint32_t k = ChooseKroneckerOrder(graph.NumNodes());

  // A privatized count that was clamped up to the floor is pure noise —
  // at (ε/2, δ) the triangle count of a sparse graph routinely is — and
  // with the NormF/NormF² weightings a floor-valued observation gives
  // that term an enormous bogus weight that wrecks the fit. Drop such
  // features from Eq. (2); the paper notes the sum is taken over "three
  // of four of the features", so subset fitting is canonical. The
  // decision depends only on already-published values, hence is
  // privacy-free post-processing. At least two features always remain.
  KronMomOptions kronmom_options = options.kronmom;
  const GraphFeatures& observed = features.value().features;
  const double floor = options.features.feature_floor;
  int active = int(kronmom_options.objective.use_edges) +
               int(kronmom_options.objective.use_hairpins) +
               int(kronmom_options.objective.use_triangles) +
               int(kronmom_options.objective.use_tripins);
  auto maybe_drop = [&active, floor](bool& enabled, double value) {
    if (enabled && value <= floor && active > 2) {
      enabled = false;
      --active;
    }
  };
  // Noisiest first: the smooth-sensitivity triangle count, then the
  // cubic tripins, then the quadratic hairpins; edges are dropped last.
  maybe_drop(kronmom_options.objective.use_triangles, observed.triangles);
  maybe_drop(kronmom_options.objective.use_tripins, observed.tripins);
  maybe_drop(kronmom_options.objective.use_hairpins, observed.hairpins);
  maybe_drop(kronmom_options.objective.use_edges, observed.edges);

  const KronMomResult fit =
      FitKronMomToFeatures(observed, k, kronmom_options);

  PrivateEstimatorResult result;
  result.theta = fit.theta;
  result.k = k;
  result.objective = fit.objective;
  result.converged = fit.converged;
  result.private_features = features.value().features;
  result.exact_features = features.value().exact;
  result.smooth_sensitivity = features.value().smooth_sensitivity;
  return result;
}

Result<PrivateEstimatorResult> EstimatePrivateSkg(
    GraphView graph, double epsilon, double delta, Rng& rng,
    const PrivateEstimatorOptions& options) {
  PrivacyBudget budget(epsilon, delta);
  return EstimatePrivateSkg(graph, epsilon, delta, budget, rng, options);
}

}  // namespace dpkron
