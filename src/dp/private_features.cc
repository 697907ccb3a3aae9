#include "src/dp/private_features.h"

#include "src/common/macros.h"
#include "src/common/stat_cache.h"
#include "src/dp/laplace_mechanism.h"
#include "src/dp/smooth_sensitivity.h"
#include "src/graph/node_stats.h"

namespace dpkron {
namespace {

// Steps 1–3 of a release: the released (Ẽ, H̃, T̃) only, never the noisy
// degree vector; `triangles` stays 0 (step 5 fills it). Layout 1:
// (Ẽ, H̃, T̃). Unpinned: the Laplace draws run through libm log1p, so
// its bits vary by host.
const CacheDomain<GraphFeatures> kDegreeReleaseDomain{
    "degree_release", 1,
    [](const GraphFeatures& features, RecordBuilder& rec) {
      rec.Double(features.edges)
          .Double(features.hairpins)
          .Double(features.tripins);
    },
    [](RecordParser& rec) -> std::optional<GraphFeatures> {
      GraphFeatures features;
      features.edges = rec.Double();
      features.hairpins = rec.Double();
      features.tripins = rec.Double();
      if (!rec.ok()) return std::nullopt;
      return features;
    }};

}  // namespace

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
  // happen after a budget refusal. The charge is never memoized: a
  // replayed release below spends exactly what a computed one does.
  if (Status s = budget.Spend(epsilon / 2, 0.0, "degree_sequence (Hay et al.)");
      !s.ok()) {
    return s;
  }
  if (Status s =
          budget.Spend(epsilon / 2, delta, "triangle_count (NRS smooth)");
      !s.ok()) {
    return s;
  }
  // Checked before the lookup, so the StatCache never stores a failure
  // and the memoized release below cannot fail.
  if (Status s = ValidateLaplaceParams(kDegreeSequenceSensitivity,
                                       epsilon / 2);
      !s.ok()) {
    return s;
  }

  PrivateFeaturesResult result;
  // One node-stats entry feeds both mechanisms and the exact features.
  const std::shared_ptr<const NodeStats> stats = CachedNodeStats(graph);
  // Steps 1–3: private degree sequence -> Ẽ, H̃, T̃, replayed with rng's
  // end state when this (graph, ε/2, options, rng state) was released
  // before.
  const std::shared_ptr<const GraphFeatures> degree_release =
      StatCache::Instance().MemoizeDraws(
          kDegreeReleaseDomain,
          CacheKey()
              .Mix(graph.ContentFingerprint())
              .MixDouble(epsilon / 2)
              .Mix(options.degrees.postprocess)
              .Mix(options.degrees.clamp_to_range),
          rng, [&] {
            auto noisy_degrees = PrivatizeSortedDegrees(
                SortedDegrees(*stats), epsilon / 2, graph.NumNodes(), rng,
                options.degrees);
            DPKRON_CHECK(noisy_degrees.ok());
            return FeaturesFromDegrees(noisy_degrees.value(), 0.0);
          });
  // Steps 4–5: smooth-sensitivity private triangle count -> ∆̃.
  const PrivateTriangleResult triangles = PrivateTriangleCount(
      graph, TotalTriangles(*stats), epsilon / 2, delta, rng);
  result.smooth_sensitivity = triangles.smooth_sensitivity;
  result.beta = triangles.beta;

  result.raw = *degree_release;
  result.raw.triangles = triangles.value;
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
