#include "src/dp/star_sensitivity.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/common/macros.h"
#include "src/dp/laplace_mechanism.h"
#include "src/dp/smooth_sensitivity.h"
#include "src/estimation/features.h"

namespace dpkron {
namespace {

// Two largest degrees of the graph.
std::pair<uint64_t, uint64_t> TopTwoDegrees(GraphView graph) {
  uint64_t top1 = 0, top2 = 0;
  for (Graph::NodeId u = 0; u < graph.NumNodes(); ++u) {
    const uint64_t d = graph.Degree(u);
    if (d >= top1) {
      top2 = top1;
      top1 = d;
    } else if (d > top2) {
      top2 = d;
    }
  }
  return {top1, top2};
}

// max_s e^{−βs}·min(profile(s), cap), where profile grows at most
// linearly-with-slope `slope_bound` so the scan can stop at the cap.
template <typename Profile>
double SmoothMax(double beta, double cap, Profile&& profile) {
  DPKRON_CHECK_GT(beta, 0.0);
  double best = 0.0;
  for (uint64_t s = 0;; ++s) {
    const double value = std::min(profile(s), cap);
    best = std::max(best, std::exp(-beta * double(s)) * value);
    if (value >= cap) break;
    if (std::exp(-beta * double(s + 1)) * cap <= best) break;
  }
  return best;
}

}  // namespace

double SmoothSensitivityWedges(GraphView graph, double beta) {
  const uint32_t n = graph.NumNodes();
  if (n < 3) return 0.0;
  const auto [d1, d2] = TopTwoDegrees(graph);
  const double base = double(d1 + d2);
  const double cap = 2.0 * double(n) - 2.0;
  return SmoothMax(beta, cap,
                   [base](uint64_t s) { return base + 2.0 * double(s); });
}

double SmoothSensitivityTripins(GraphView graph, double beta) {
  const uint32_t n = graph.NumNodes();
  if (n < 4) return 0.0;
  const auto [d1, d2] = TopTwoDegrees(graph);
  const double cap = double(n - 1) * double(n - 2);
  auto choose2 = [](double d) { return d * (d - 1.0) / 2.0; };
  return SmoothMax(beta, cap, [&, d1 = d1, d2 = d2](uint64_t s) {
    return choose2(double(d1 + s)) + choose2(double(d2 + s));
  });
}

namespace {

PrivateCountResult PrivatizeWithSmoothSensitivity(double exact, double ss,
                                                  double epsilon, double beta,
                                                  Rng& rng) {
  PrivateCountResult result;
  result.beta = beta;
  result.smooth_sensitivity = ss;
  result.value = exact + 2.0 * ss / epsilon * rng.NextLaplace(1.0);
  return result;
}

}  // namespace

PrivateCountResult PrivateWedgeCount(GraphView graph, double wedges,
                                     double epsilon, double delta, Rng& rng) {
  DPKRON_CHECK_GT(epsilon, 0.0);
  DPKRON_CHECK_GT(delta, 0.0);
  DPKRON_CHECK_LT(delta, 1.0);
  const double beta = epsilon / (2.0 * std::log(2.0 / delta));
  return PrivatizeWithSmoothSensitivity(
      wedges, SmoothSensitivityWedges(graph, beta), epsilon, beta, rng);
}

PrivateCountResult PrivateTripinCount(GraphView graph, double tripins,
                                      double epsilon, double delta, Rng& rng) {
  DPKRON_CHECK_GT(epsilon, 0.0);
  DPKRON_CHECK_GT(delta, 0.0);
  DPKRON_CHECK_LT(delta, 1.0);
  const double beta = epsilon / (2.0 * std::log(2.0 / delta));
  return PrivatizeWithSmoothSensitivity(
      tripins, SmoothSensitivityTripins(graph, beta), epsilon, beta, rng);
}

Result<GraphFeatures> ComputeDirectPrivateFeatures(
    GraphView graph, double epsilon, double delta, PrivacyBudget& budget,
    Rng& rng, double feature_floor) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  const double eps_each = epsilon / 4.0;
  const double delta_each = delta / 3.0;
  if (Status s = budget.Spend(eps_each, 0.0, "edge_count (Laplace)"); !s.ok()) {
    return s;
  }
  if (Status s = budget.Spend(eps_each, delta_each, "wedge_count (smooth)");
      !s.ok()) {
    return s;
  }
  if (Status s = budget.Spend(eps_each, delta_each, "tripin_count (smooth)");
      !s.ok()) {
    return s;
  }
  if (Status s =
          budget.Spend(eps_each, delta_each, "triangle_count (NRS smooth)");
      !s.ok()) {
    return s;
  }

  // One node-stats fetch feeds all three smooth-sensitivity mechanisms.
  const std::shared_ptr<const NodeStats> stats = CachedNodeStats(graph);
  const GraphFeatures exact = FeaturesFromNodeStats(graph.NumEdges(), *stats);
  GraphFeatures features;
  const auto noisy_edges = AddLaplaceNoise(exact.edges, 1.0, eps_each, rng);
  if (!noisy_edges.ok()) return noisy_edges.status();
  features.edges = noisy_edges.value();
  features.hairpins =
      PrivateWedgeCount(graph, exact.hairpins, eps_each, delta_each, rng)
          .value;
  features.tripins =
      PrivateTripinCount(graph, exact.tripins, eps_each, delta_each, rng)
          .value;
  features.triangles = PrivateTriangleCount(graph, TotalTriangles(*stats),
                                            eps_each, delta_each, rng)
                           .value;
  return ClampFeatures(features, feature_floor);
}

}  // namespace dpkron
