#include "src/dk/dk2.h"

#include <cmath>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/datasets/affiliation.h"
#include "src/graph/degree.h"
#include "src/graph/extra_stats.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::CompleteGraph;
using testing::MakeGraph;
using testing::PathGraph;
using testing::StarGraph;

TEST(Dk2TableTest, ExtractionOnStar) {
  // Star on 5 nodes: 4 edges, all between degree-4 and degree-1 nodes.
  const Dk2Table table = Dk2Table::FromGraph(StarGraph(5));
  EXPECT_DOUBLE_EQ(table.Count(1, 4), 4.0);
  EXPECT_DOUBLE_EQ(table.Count(4, 1), 4.0);  // order-insensitive
  EXPECT_DOUBLE_EQ(table.Count(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(table.TotalEdges(), 4.0);
  EXPECT_EQ(table.max_degree(), 4u);
}

TEST(Dk2TableTest, ExtractionOnPath) {
  // P4 degrees 1,2,2,1: edges (1,2), (2,2), (2,1).
  const Dk2Table table = Dk2Table::FromGraph(PathGraph(4));
  EXPECT_DOUBLE_EQ(table.Count(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(table.Count(2, 2), 1.0);
}

TEST(Dk2TableTest, TotalMatchesEdgeCount) {
  Rng rng(1);
  AffiliationOptions options;
  options.num_authors = 600;
  options.num_papers = 400;
  const Graph g = AffiliationGraph(options, rng);
  const Dk2Table table = Dk2Table::FromGraph(g);
  EXPECT_DOUBLE_EQ(table.TotalEdges(), double(g.NumEdges()));
}

TEST(Dk2TableTest, ImpliedNodeCounts) {
  const Dk2Table table = Dk2Table::FromGraph(StarGraph(5));
  EXPECT_DOUBLE_EQ(table.ImpliedNodeCount(1), 4.0);
  EXPECT_DOUBLE_EQ(table.ImpliedNodeCount(4), 1.0);
  // Complete graph K4: 6 edges all (3,3); diagonal counted twice:
  // (6 + 6)/3 = 4 nodes.
  const Dk2Table k4 = Dk2Table::FromGraph(CompleteGraph(4));
  EXPECT_DOUBLE_EQ(k4.ImpliedNodeCount(3), 4.0);
}

TEST(Dk2TableTest, L1Distance) {
  Dk2Table a, b;
  a.Set(1, 2, 5.0);
  a.Set(2, 2, 1.0);
  b.Set(1, 2, 3.0);
  b.Set(3, 3, 4.0);
  EXPECT_DOUBLE_EQ(Dk2Table::L1Distance(a, b), 2.0 + 1.0 + 4.0);
  EXPECT_DOUBLE_EQ(Dk2Table::L1Distance(a, a), 0.0);
}

TEST(PrivatizeDk2Test, ChargesBudget) {
  Rng rng(2);
  const Dk2Table exact = Dk2Table::FromGraph(StarGraph(20));
  PrivacyBudget budget(1.0, 0.0);
  const auto noisy = PrivatizeDk2(exact, 1.0, budget, rng);
  ASSERT_TRUE(noisy.ok());
  EXPECT_NEAR(budget.epsilon_spent(), 1.0, 1e-12);
}

TEST(PrivatizeDk2Test, RefusesBadParameters) {
  Rng rng(3);
  PrivacyBudget budget(1.0, 0.0);
  EXPECT_FALSE(PrivatizeDk2(Dk2Table(), 1.0, budget, rng).ok());  // empty
  const Dk2Table exact = Dk2Table::FromGraph(PathGraph(4));
  EXPECT_FALSE(PrivatizeDk2(exact, -0.5, budget, rng).ok());
}

TEST(PrivatizeDk2Test, HighEpsilonPreservesTable) {
  Rng rng(4);
  const Graph g = StarGraph(40);
  const Dk2Table exact = Dk2Table::FromGraph(g);
  PrivacyBudget budget(1e6, 0.0);
  const auto noisy = PrivatizeDk2(exact, 1e6, budget, rng);
  ASSERT_TRUE(noisy.ok());
  EXPECT_LT(Dk2Table::L1Distance(exact, noisy.value()), 1.0);
}

TEST(PrivatizeDk2Test, SparsificationSuppressesNoiseMass) {
  Rng rng(5);
  const Graph g = StarGraph(60);  // one real cell, 59 max degree
  const Dk2Table exact = Dk2Table::FromGraph(g);
  PrivacyBudget budget(10.0, 0.0);
  const auto noisy = PrivatizeDk2(exact, 1.0, budget, rng);
  ASSERT_TRUE(noisy.ok());
  // Without thresholding the ~1800 cells would carry huge clamped-noise
  // mass; with it, total mass stays within a few× the real mass.
  EXPECT_LT(noisy.value().TotalEdges(), 20 * exact.TotalEdges() + 1e4);
}

TEST(SampleDk2GraphTest, RealizesExactTableApproximately) {
  Rng rng(6);
  AffiliationOptions options;
  options.num_authors = 800;
  options.num_papers = 520;
  const Graph original = AffiliationGraph(options, rng);
  const Dk2Table exact = Dk2Table::FromGraph(original);
  const Graph rebuilt = SampleDk2Graph(exact, rng);
  // Edge mass within a few percent (greedy matching drops a remainder).
  EXPECT_NEAR(double(rebuilt.NumEdges()), double(original.NumEdges()),
              0.05 * double(original.NumEdges()));
  // Degree-degree structure carries over: assortativity within 0.15.
  EXPECT_NEAR(DegreeAssortativity(rebuilt), DegreeAssortativity(original),
              0.15);
  // JDD itself is close in L1 (relative to edge mass).
  const Dk2Table rebuilt_table = Dk2Table::FromGraph(rebuilt);
  EXPECT_LT(Dk2Table::L1Distance(exact, rebuilt_table),
            0.35 * exact.TotalEdges());
}

TEST(SampleDk2GraphTest, EmptyTableGivesEmptyGraph) {
  Rng rng(7);
  const Graph g = SampleDk2Graph(Dk2Table(), rng);
  EXPECT_EQ(g.NumEdges(), 0u);
}

// The Sala-style release the comparison scenario runs: extract →
// privatize(ε) → generate.
Result<Graph> Dk2Release(const Graph& graph, double epsilon,
                         PrivacyBudget& budget, Rng& rng) {
  const auto noisy =
      PrivatizeDk2(Dk2Table::FromGraph(graph), epsilon, budget, rng);
  if (!noisy.ok()) return noisy.status();
  return SampleDk2Graph(noisy.value(), rng);
}

TEST(PrivateDk2ReleaseTest, EndToEnd) {
  Rng rng(8);
  AffiliationOptions options;
  options.num_authors = 500;
  options.num_papers = 320;
  const Graph original = AffiliationGraph(options, rng);
  PrivacyBudget budget(20.0, 0.0);
  const auto released = Dk2Release(original, 20.0, budget, rng);
  ASSERT_TRUE(released.ok());
  EXPECT_GT(released.value().NumEdges(), 0u);
  EXPECT_NEAR(budget.epsilon_spent(), 20.0, 1e-12);
}

TEST(PrivateDk2ReleaseTest, DeterministicGivenSeed) {
  const Graph g = testing::CompleteGraph(24);
  Rng rng1(10), rng2(10);
  PrivacyBudget b1(5.0, 0.0), b2(5.0, 0.0);
  const auto r1 = Dk2Release(g, 5.0, b1, rng1);
  const auto r2 = Dk2Release(g, 5.0, b2, rng2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().Edges(), r2.value().Edges());
}

}  // namespace
}  // namespace dpkron
