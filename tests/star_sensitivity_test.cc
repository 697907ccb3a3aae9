#include "src/dp/star_sensitivity.h"

#include <cmath>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/graph/graph_builder.h"
#include "src/graph/node_stats.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::CompleteGraph;
using testing::MakeGraph;
using testing::StarGraph;

TEST(SmoothSensitivityWedgesTest, AtLeastLocalSensitivity) {
  // Adding an edge between the two highest-degree non-adjacent nodes
  // creates d1 + d2 wedges; SS must be at least that when such a pair
  // exists. Star graph: two leaves (degree 1 each) are non-adjacent.
  const Graph g = StarGraph(10);
  const double ss = SmoothSensitivityWedges(g, 1.0);
  EXPECT_GE(ss, 2.0);  // adding leaf-leaf edge: 1 + 1 wedges... bound is
                       // d(1)+d(2) = 9+1 = 10 (conservative).
  EXPECT_GE(ss, 10.0 * std::exp(0.0) - 1e-9);
}

TEST(SmoothSensitivityWedgesTest, SmallBetaApproachesCap) {
  const Graph g = MakeGraph(16, {{0, 1}});
  // With beta -> 0 the adversary can grow degrees arbitrarily: SS -> cap.
  EXPECT_NEAR(SmoothSensitivityWedges(g, 1e-9), 2.0 * 16 - 2, 1e-3);
}

TEST(SmoothSensitivityWedgesTest, LargeBetaApproachesBase) {
  Rng rng(1);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 7, rng);
  const auto degrees = SortedDegrees(ComputeNodeStats(g));
  const double base =
      double(degrees[degrees.size() - 1]) + double(degrees[degrees.size() - 2]);
  EXPECT_NEAR(SmoothSensitivityWedges(g, 50.0), base, 1e-9);
}

TEST(SmoothSensitivityWedgesTest, SmoothnessAcrossNeighbors) {
  Rng rng(3);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = SampleSkg({0.85, 0.5, 0.3}, 6, rng);
    const uint32_t n = g.NumNodes();
    const uint32_t i = uint32_t(rng.NextBounded(n));
    uint32_t j = uint32_t(rng.NextBounded(n));
    if (i == j) j = (j + 1) % n;
    GraphBuilder builder(n);
    g.ForEachEdge([&](Graph::NodeId u, Graph::NodeId v) {
      if (u == std::min(i, j) && v == std::max(i, j)) return;
      builder.AddEdge(u, v);
    });
    if (!g.HasEdge(i, j)) builder.AddEdge(i, j);
    const Graph neighbor = builder.Build();
    for (double beta : {0.0167, 0.1, 0.5}) {
      const double ss_g = SmoothSensitivityWedges(g, beta);
      const double ss_n = SmoothSensitivityWedges(neighbor, beta);
      EXPECT_LE(ss_g, std::exp(beta) * ss_n + 1e-9);
      EXPECT_LE(ss_n, std::exp(beta) * ss_g + 1e-9);
      const double st_g = SmoothSensitivityTripins(g, beta);
      const double st_n = SmoothSensitivityTripins(neighbor, beta);
      EXPECT_LE(st_g, std::exp(beta) * st_n + 1e-9);
      EXPECT_LE(st_n, std::exp(beta) * st_g + 1e-9);
    }
  }
}

TEST(SmoothSensitivityTripinsTest, TinyGraphsZero) {
  EXPECT_DOUBLE_EQ(SmoothSensitivityTripins(MakeGraph(3, {{0, 1}}), 0.1), 0.0);
  EXPECT_DOUBLE_EQ(SmoothSensitivityWedges(MakeGraph(2, {{0, 1}}), 0.1), 0.0);
}

TEST(SmoothSensitivityTripinsTest, CompleteGraphBase) {
  // K6: d1 = d2 = 5, base = 2·C(5,2) = 20; cap = 5·4 = 20, so SS = 20
  // for every beta.
  const Graph g = CompleteGraph(6);
  EXPECT_NEAR(SmoothSensitivityTripins(g, 10.0), 20.0, 1e-9);
  EXPECT_NEAR(SmoothSensitivityTripins(g, 0.001), 20.0, 1e-9);
}

TEST(PrivateWedgeCountTest, CentersOnTruth) {
  Rng graph_rng(5);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 8, graph_rng);
  const double truth = testing::ExactFeatures(g).hairpins;
  Rng rng(7);
  double sum = 0.0;
  const int runs = 300;
  double ss = 0.0;
  for (int r = 0; r < runs; ++r) {
    const auto result = PrivateWedgeCount(g, truth, 1.0, 0.01, rng);
    sum += result.value;
    ss = result.smooth_sensitivity;
  }
  const double noise_sd = 2.0 * ss * std::sqrt(2.0);
  EXPECT_NEAR(sum / runs, truth, 5 * noise_sd / std::sqrt(double(runs)));
}

TEST(PrivateTripinCountTest, MoreNoiseAtSmallerEpsilon) {
  Rng rng(9);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 7, rng);
  const double truth = testing::ExactFeatures(g).tripins;
  double small = 0, large = 0;
  for (int r = 0; r < 60; ++r) {
    small +=
        std::fabs(PrivateTripinCount(g, truth, 0.05, 0.01, rng).value - truth);
    large +=
        std::fabs(PrivateTripinCount(g, truth, 5.0, 0.01, rng).value - truth);
  }
  EXPECT_GT(small, 3 * large);
}

TEST(DirectPrivateFeaturesTest, BudgetLedger) {
  Rng rng(11);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 8, rng);
  PrivacyBudget budget(0.2, 0.01);
  const auto features = ComputeDirectPrivateFeatures(g, 0.2, 0.01, budget, rng);
  ASSERT_TRUE(features.ok());
  EXPECT_NEAR(budget.epsilon_spent(), 0.2, 1e-12);
  EXPECT_NEAR(budget.delta_spent(), 0.01, 1e-12);
  EXPECT_EQ(budget.ledger().size(), 4u);
}

TEST(DirectPrivateFeaturesTest, RefusesInsufficientBudget) {
  Rng rng(13);
  const Graph g = testing::CycleGraph(32);
  PrivacyBudget budget(0.1, 0.01);
  EXPECT_FALSE(ComputeDirectPrivateFeatures(g, 0.2, 0.01, budget, rng).ok());
}

TEST(DirectPrivateFeaturesTest, AccurateAtHighEpsilon) {
  Rng rng(15);
  const Graph g = SampleSkg({0.95, 0.55, 0.3}, 9, rng);
  const GraphFeatures exact = testing::ExactFeatures(g);
  PrivacyBudget budget(400.0, 0.01);
  const auto features =
      ComputeDirectPrivateFeatures(g, 400.0, 0.01, budget, rng);
  ASSERT_TRUE(features.ok());
  EXPECT_NEAR(features.value().edges, exact.edges, 0.01 * exact.edges + 1);
  EXPECT_NEAR(features.value().hairpins, exact.hairpins,
              0.05 * exact.hairpins + 10);
  EXPECT_NEAR(features.value().tripins, exact.tripins,
              0.05 * exact.tripins + 10);
}

TEST(DirectPrivateFeaturesTest, RejectsInvalidParameters) {
  Rng rng(17);
  const Graph g = testing::CycleGraph(16);
  PrivacyBudget budget(1.0, 0.1);
  EXPECT_FALSE(ComputeDirectPrivateFeatures(g, -1.0, 0.01, budget, rng).ok());
  EXPECT_FALSE(ComputeDirectPrivateFeatures(g, 0.2, 2.0, budget, rng).ok());
}

}  // namespace
}  // namespace dpkron
