#include "src/dp/private_features.h"

#include <cmath>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

TEST(PrivateFeaturesTest, ChargesBudgetPerAlgorithmOne) {
  Rng rng(1);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 7, rng);
  PrivacyBudget budget(0.2, 0.01);
  const auto result = ComputePrivateFeatures(g, 0.2, 0.01, budget, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(budget.epsilon_spent(), 0.2, 1e-12);
  EXPECT_NEAR(budget.delta_spent(), 0.01, 1e-12);
  ASSERT_EQ(budget.ledger().size(), 2u);
  EXPECT_NEAR(budget.ledger()[0].epsilon, 0.1, 1e-12);  // degrees: ε/2
  EXPECT_NEAR(budget.ledger()[1].epsilon, 0.1, 1e-12);  // triangles: ε/2
  EXPECT_NEAR(budget.ledger()[1].delta, 0.01, 1e-12);
}

TEST(PrivateFeaturesTest, RefusedWhenBudgetInsufficient) {
  Rng rng(2);
  const Graph g = testing::CycleGraph(16);
  PrivacyBudget budget(0.1, 0.01);
  const auto result = ComputePrivateFeatures(g, 0.2, 0.01, budget, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PrivateFeaturesTest, RejectsInvalidParameters) {
  Rng rng(3);
  const Graph g = testing::CycleGraph(16);
  EXPECT_FALSE(ComputePrivateFeatures(g, -1.0, 0.01, rng).ok());
  EXPECT_FALSE(ComputePrivateFeatures(g, 0.2, 0.0, rng).ok());
  EXPECT_FALSE(ComputePrivateFeatures(g, 0.2, 1.5, rng).ok());
}

TEST(PrivateFeaturesTest, ClampedFeaturesRespectFloor) {
  Rng rng(4);
  // Sparse graph + tiny epsilon: raw noisy counts go negative; clamped
  // outputs must sit at the floor.
  const Graph g = testing::PathGraph(32);
  const auto result = ComputePrivateFeatures(g, 0.01, 0.001, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().features.edges, 1.0);
  EXPECT_GE(result.value().features.hairpins, 1.0);
  EXPECT_GE(result.value().features.triangles, 1.0);
  EXPECT_GE(result.value().features.tripins, 1.0);
}

TEST(PrivateFeaturesTest, AccurateAtHighEpsilon) {
  Rng rng(5);
  const Graph g = SampleSkg({0.95, 0.55, 0.25}, 10, rng);
  const GraphFeatures exact = testing::ExactFeatures(g);
  const auto result = ComputePrivateFeatures(g, 50.0, 0.01, rng);
  ASSERT_TRUE(result.ok());
  const GraphFeatures& f = result.value().features;
  EXPECT_NEAR(f.edges, exact.edges, 0.02 * exact.edges);
  EXPECT_NEAR(f.hairpins, exact.hairpins, 0.05 * exact.hairpins);
  EXPECT_NEAR(f.triangles, exact.triangles, 0.10 * exact.triangles + 50);
  EXPECT_NEAR(f.tripins, exact.tripins, 0.10 * exact.tripins);
}

TEST(PrivateFeaturesTest, PaperEpsilonGivesUsableFeatures) {
  // (ε, δ) = (0.2, 0.01), the paper's setting, on a graph with the
  // density of the paper's co-authorship networks (mean degree ≈ 10;
  // relative degree-noise bias shrinks with density).
  Rng rng(6);
  const Graph g = SampleSkg({0.99, 0.55, 0.35}, 12, rng);
  const GraphFeatures exact = testing::ExactFeatures(g);
  const auto result = ComputePrivateFeatures(g, 0.2, 0.01, rng);
  ASSERT_TRUE(result.ok());
  const GraphFeatures& f = result.value().features;
  // Degrees dominate E and H; they are very accurate even at ε/2 = 0.1.
  EXPECT_NEAR(f.edges, exact.edges, 0.05 * exact.edges);
  EXPECT_NEAR(f.hairpins, exact.hairpins, 0.15 * exact.hairpins);
}

TEST(PrivateFeaturesTest, DeterministicGivenSeed) {
  Rng g_rng(7);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 8, g_rng);
  Rng rng1(99), rng2(99);
  const auto r1 = ComputePrivateFeatures(g, 0.2, 0.01, rng1);
  const auto r2 = ComputePrivateFeatures(g, 0.2, 0.01, rng2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1.value().features.edges, r2.value().features.edges);
  EXPECT_DOUBLE_EQ(r1.value().features.triangles,
                   r2.value().features.triangles);
}

TEST(PrivateFeaturesTest, RawAndClampedDifferOnlyByFloor) {
  Rng rng(8);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 9, rng);
  const auto result = ComputePrivateFeatures(g, 1.0, 0.01, rng);
  ASSERT_TRUE(result.ok());
  const auto& raw = result.value().raw;
  const auto& clamped = result.value().features;
  EXPECT_DOUBLE_EQ(clamped.edges, std::max(raw.edges, 1.0));
  EXPECT_DOUBLE_EQ(clamped.triangles, std::max(raw.triangles, 1.0));
}

TEST(ClampFeaturesTest, Pointwise) {
  GraphFeatures f;
  f.edges = -3.0;
  f.hairpins = 0.5;
  f.triangles = 100.0;
  f.tripins = 1.0;
  const GraphFeatures clamped = ClampFeatures(f, 1.0);
  EXPECT_DOUBLE_EQ(clamped.edges, 1.0);
  EXPECT_DOUBLE_EQ(clamped.hairpins, 1.0);
  EXPECT_DOUBLE_EQ(clamped.triangles, 100.0);
  EXPECT_DOUBLE_EQ(clamped.tripins, 1.0);
}

}  // namespace
}  // namespace dpkron
