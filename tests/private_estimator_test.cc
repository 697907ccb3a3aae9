#include "src/core/private_estimator.h"

#include <cmath>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

TEST(PrivateEstimatorTest, RecoversTruthAtHighEpsilon) {
  const Initiator2 truth{0.99, 0.45, 0.25};
  Rng rng(1);
  const Graph g = SampleSkg(truth, 12, rng);
  const auto result = EstimatePrivateSkg(g, 100.0, 0.01, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().k, 12u);
  EXPECT_NEAR(result.value().theta.a, truth.a, 0.08);
  EXPECT_NEAR(result.value().theta.b, truth.b, 0.12);
  EXPECT_NEAR(result.value().theta.c, truth.c, 0.12);
}

TEST(PrivateEstimatorTest, PaperSettingTracksNonPrivateEstimate) {
  // The paper's headline observation (Table 1, synthetic row): at
  // (ε, δ) = (0.2, 0.01) the private estimate is within ~1e-2 of the
  // non-private KronMom estimate.
  const Initiator2 truth{0.99, 0.45, 0.25};
  Rng rng(2);
  const Graph g = SampleSkg(truth, 14, rng);  // the paper's k = 14

  const KronMomResult non_private = FitKronMom(g);
  const auto private_fit = EstimatePrivateSkg(g, 0.2, 0.01, rng);
  ASSERT_TRUE(private_fit.ok());
  EXPECT_LT(MaxAbsDifference(private_fit.value().theta, non_private.theta),
            0.05);
}

TEST(PrivateEstimatorTest, BudgetLedgerMatchesAlgorithmOne) {
  Rng rng(3);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 9, rng);
  PrivacyBudget budget(0.5, 0.05);
  const auto result = EstimatePrivateSkg(g, 0.2, 0.01, budget, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(budget.epsilon_spent(), 0.2, 1e-12);
  EXPECT_NEAR(budget.delta_spent(), 0.01, 1e-12);
  EXPECT_NEAR(budget.epsilon_remaining(), 0.3, 1e-12);
}

TEST(PrivateEstimatorTest, FailsOnTinyGraph) {
  Rng rng(4);
  EXPECT_FALSE(EstimatePrivateSkg(testing::MakeGraph(1, {}), 1.0, 0.01, rng)
                   .ok());
}

TEST(PrivateEstimatorTest, FailsWhenBudgetExhausted) {
  Rng rng(5);
  const Graph g = testing::CycleGraph(32);
  PrivacyBudget budget(0.2, 0.01);
  ASSERT_TRUE(budget.Spend(0.15, 0.0, "previous release").ok());
  const auto result = EstimatePrivateSkg(g, 0.2, 0.01, budget, rng);
  EXPECT_FALSE(result.ok());
}

TEST(PrivateEstimatorTest, OutputIsCanonicalAndValid) {
  Rng rng(7);
  const Graph g = SampleSkg({0.9, 0.6, 0.1}, 10, rng);
  const auto result = EstimatePrivateSkg(g, 0.2, 0.01, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().theta.IsValid());
  EXPECT_GE(result.value().theta.a, result.value().theta.c);
}

TEST(PrivateEstimatorTest, ReportsDiagnostics) {
  Rng rng(8);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 9, rng);
  const auto result = EstimatePrivateSkg(g, 0.2, 0.01, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().smooth_sensitivity, 0.0);
  EXPECT_DOUBLE_EQ(result.value().exact_features.edges,
                   double(g.NumEdges()));
  EXPECT_GT(result.value().private_features.edges, 0.0);
}

TEST(PrivateEstimatorTest, SmallEpsilonStillProducesValidModel) {
  Rng rng(9);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 9, rng);
  const auto result = EstimatePrivateSkg(g, 0.01, 0.001, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().theta.IsValid());
}

TEST(PrivateEstimatorTest, DeterministicGivenSeed) {
  Rng g_rng(10);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 9, g_rng);
  Rng rng1(1234), rng2(1234);
  const auto r1 = EstimatePrivateSkg(g, 0.2, 0.01, rng1);
  const auto r2 = EstimatePrivateSkg(g, 0.2, 0.01, rng2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1.value().theta.a, r2.value().theta.a);
  EXPECT_DOUBLE_EQ(r1.value().theta.b, r2.value().theta.b);
  EXPECT_DOUBLE_EQ(r1.value().theta.c, r2.value().theta.c);
}

}  // namespace
}  // namespace dpkron
