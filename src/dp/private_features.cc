#include "src/dp/private_features.h"

#include "src/common/macros.h"
#include "src/dp/smooth_sensitivity.h"
#include "src/graph/node_stats.h"

namespace dpkron {

Result<PrivateFeaturesResult> ComputePrivateFeatures(
    GraphView graph, double epsilon, double delta, PrivacyBudget& budget,
    Rng& rng, const PrivateFeaturesOptions& options) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  // Reserve the full charge up front; a partially-run mechanism must not
  // happen after a budget refusal.
  if (Status s = budget.Spend(epsilon / 2, 0.0, "degree_sequence (Hay et al.)");
      !s.ok()) {
    return s;
  }
  if (Status s =
          budget.Spend(epsilon / 2, delta, "triangle_count (NRS smooth)");
      !s.ok()) {
    return s;
  }

  PrivateFeaturesResult result;
  // One node-stats entry feeds both mechanisms and the exact features.
  const std::shared_ptr<const NodeStats> stats = CachedNodeStats(graph);
  // Steps 1–3: private degree sequence -> Ẽ, H̃, T̃.
  auto noisy_degrees = PrivatizeSortedDegrees(
      SortedDegrees(*stats), epsilon / 2, graph.NumNodes(), rng,
      options.degrees);
  if (!noisy_degrees.ok()) return noisy_degrees.status();
  result.noisy_degrees = std::move(noisy_degrees).value();
  // Steps 4–5: smooth-sensitivity private triangle count -> ∆̃.
  const PrivateTriangleResult triangles = PrivateTriangleCount(
      graph, TotalTriangles(*stats), epsilon / 2, delta, rng);
  result.smooth_sensitivity = triangles.smooth_sensitivity;
  result.beta = triangles.beta;

  result.raw = FeaturesFromDegrees(result.noisy_degrees, triangles.value);
  result.features = ClampFeatures(result.raw, options.feature_floor);
  result.exact = FeaturesFromNodeStats(graph.NumEdges(), *stats);
  return result;
}

Result<PrivateFeaturesResult> ComputePrivateFeatures(
    GraphView graph, double epsilon, double delta, Rng& rng,
    const PrivateFeaturesOptions& options) {
  // Validate before provisioning: PrivacyBudget treats invalid totals as
  // a programming error and aborts, but bad (ε, δ) here is a recoverable
  // caller mistake.
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  PrivacyBudget budget(epsilon, delta);
  return ComputePrivateFeatures(graph, epsilon, delta, budget, rng, options);
}

}  // namespace dpkron
