#include "src/dp/degree_sequence.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/graph/degree.h"
#include "src/graph/node_stats.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

double L2Error(const std::vector<double>& estimate,
               const std::vector<uint32_t>& truth) {
  double sum = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    const double diff = estimate[i] - double(truth[i]);
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

TEST(PrivateDegreeSequenceTest, SizeMatchesNodeCount) {
  Rng rng(1);
  const Graph g = testing::CycleGraph(20);
  const auto d = PrivateDegreeSequence(g, 1.0, rng).value();
  EXPECT_EQ(d.size(), 20u);
}

TEST(PrivateDegreeSequenceTest, PostprocessedOutputIsMonotone) {
  Rng rng(2);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 8, rng);
  const auto d = PrivateDegreeSequence(g, 0.2, rng).value();
  for (size_t i = 1; i < d.size(); ++i) EXPECT_GE(d[i], d[i - 1]);
}

TEST(PrivateDegreeSequenceTest, ClampKeepsFeasibleRange) {
  Rng rng(3);
  const Graph g = testing::PathGraph(10);
  // Tiny epsilon → huge noise; clamp must hold the estimates in [0, n-1].
  const auto d = PrivateDegreeSequence(g, 0.001, rng).value();
  for (double x : d) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 9.0);
  }
}

TEST(PrivateDegreeSequenceTest, NoClampOptionAllowsExcursions) {
  Rng rng(4);
  const Graph g = testing::PathGraph(50);
  PrivateDegreeOptions options;
  options.clamp_to_range = false;
  options.postprocess = false;
  const auto d = PrivateDegreeSequence(g, 0.001, rng, options).value();
  bool out_of_range = false;
  for (double x : d) out_of_range |= (x < 0.0 || x > 49.0);
  EXPECT_TRUE(out_of_range);
}

TEST(PrivateDegreeSequenceTest, HighEpsilonTracksTruthClosely) {
  Rng rng(5);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 9, rng);
  const auto truth = SortedDegrees(ComputeNodeStats(g));
  const auto d = PrivateDegreeSequence(g, 100.0, rng).value();
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(d[i], double(truth[i]), 1.0);
  }
}

TEST(PrivateDegreeSequenceTest, PostprocessingReducesError) {
  // The Hay et al. headline claim: constrained inference beats raw noise.
  // Compare average L2 error with and without post-processing across
  // trials with matched noise draws (same seed).
  Rng graph_rng(6);
  const Graph g = SampleSkg({0.95, 0.5, 0.2}, 9, graph_rng);
  const auto truth = SortedDegrees(ComputeNodeStats(g));

  double raw_error = 0.0, fitted_error = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    PrivateDegreeOptions raw;
    raw.postprocess = false;
    raw.clamp_to_range = false;
    Rng rng_a(1000 + t), rng_b(1000 + t);
    raw_error += L2Error(PrivateDegreeSequence(g, 0.2, rng_a, raw).value(), truth);
    PrivateDegreeOptions fitted;
    fitted.postprocess = true;
    fitted.clamp_to_range = false;
    fitted_error +=
        L2Error(PrivateDegreeSequence(g, 0.2, rng_b, fitted).value(), truth);
  }
  EXPECT_LT(fitted_error, 0.5 * raw_error);
}

TEST(PrivateDegreeSequenceTest, DerivedFeaturesApproximateTruth) {
  // Ẽ, H̃, T̃ computed from the private degrees should approximate the
  // exact counts at a moderate epsilon (the Algorithm 1 accuracy story).
  Rng rng(7);
  const Graph g = SampleSkg({0.95, 0.55, 0.25}, 10, rng);
  const auto d = PrivateDegreeSequence(g, 1.0, rng).value();
  const double e_true = double(g.NumEdges());
  const double h_true = testing::ExactFeatures(g).hairpins;
  EXPECT_NEAR(EdgesFromDegrees(d), e_true, 0.05 * e_true);
  EXPECT_NEAR(HairpinsFromDegrees(d), h_true, 0.10 * h_true);
}

TEST(PrivatizeSortedDegreesTest, WorksWithoutGraph) {
  Rng rng(8);
  const std::vector<uint32_t> sorted = {1, 1, 2, 2, 3, 5};
  const auto d = PrivatizeSortedDegrees(sorted, 2.0, 6, rng).value();
  EXPECT_EQ(d.size(), 6u);
  for (size_t i = 1; i < d.size(); ++i) EXPECT_GE(d[i], d[i - 1]);
}

TEST(PrivatizeSortedDegreesTest, DegenerateEpsilonIsStatusNotAbort) {
  Rng rng(9);
  const uint64_t fingerprint = rng.StateFingerprint();
  const auto result = PrivatizeSortedDegrees({1, 2}, 0.0, 2, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // No noise was drawn on the rejected call.
  EXPECT_EQ(rng.StateFingerprint(), fingerprint);
}

}  // namespace
}  // namespace dpkron
