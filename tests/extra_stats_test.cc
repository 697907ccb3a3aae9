#include "src/graph/extra_stats.h"

#include <algorithm>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/graph/node_stats.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::CompleteGraph;
using testing::CycleGraph;
using testing::MakeGraph;
using testing::PathGraph;
using testing::PerNodeTrianglesByCommonNeighbors;
using testing::PetersenGraph;
using testing::StarGraph;

// Triangle participation: the number of triangles each node is in.
TEST(TriangleParticipationTest, CompleteGraph) {
  // Every node of K_5 is in C(4,2) = 6 triangles.
  EXPECT_EQ(ComputeNodeStats(CompleteGraph(5)).triangles,
            std::vector<uint64_t>(5, 6));
}

TEST(TriangleParticipationTest, MixedGraph) {
  // Triangle {0,1,2} plus pendant 3 attached to 0.
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 0}, {0, 3}});
  EXPECT_EQ(ComputeNodeStats(g).triangles,
            (std::vector<uint64_t>{1, 1, 1, 0}));
}

TEST(TriangleParticipationTest, CountsSumToNodes) {
  Rng rng(3);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 8, rng);
  const NodeStats stats = ComputeNodeStats(g);
  EXPECT_EQ(stats.triangles.size(), g.NumNodes());
  uint64_t total = 0;
  for (uint64_t t : stats.triangles) total += t;
  EXPECT_EQ(total, 3 * TotalTriangles(stats));
  EXPECT_EQ(stats.triangles, PerNodeTrianglesByCommonNeighbors(g));
}

TEST(DegreeAssortativityTest, StarIsPerfectlyDisassortative) {
  EXPECT_NEAR(DegreeAssortativity(StarGraph(10)), -1.0, 1e-9);
}

TEST(DegreeAssortativityTest, RegularGraphsReportZero) {
  EXPECT_DOUBLE_EQ(DegreeAssortativity(CycleGraph(8)), 0.0);
  EXPECT_DOUBLE_EQ(DegreeAssortativity(CompleteGraph(6)), 0.0);
  EXPECT_DOUBLE_EQ(DegreeAssortativity(PetersenGraph()), 0.0);
}

TEST(DegreeAssortativityTest, PathGraphKnownValue) {
  // P4 degrees: 1,2,2,1; edges (1,2),(2,2),(2,1). Endpoint samples:
  // x ∈ {1,2,2,2,2,1}; classic r = −1/2... compute directly: mean=5/3,
  // var = 2/9; cov over pairs {(1,2),(2,2),(2,1)} doubled = (2+4+2)·2/6
  // − 25/9 = 8/3−25/9 = −1/9; r = −1/2.
  EXPECT_NEAR(DegreeAssortativity(PathGraph(4)), -0.5, 1e-9);
}

TEST(DegreeAssortativityTest, WithinBounds) {
  Rng rng(5);
  const Graph g = SampleSkg({0.95, 0.5, 0.2}, 9, rng);
  const double r = DegreeAssortativity(g);
  EXPECT_GE(r, -1.0);
  EXPECT_LE(r, 1.0);
}

TEST(CoreNumbersTest, CompleteGraph) {
  const auto core = CoreNumbers(CompleteGraph(6));
  for (uint32_t c : core) EXPECT_EQ(c, 5u);
  EXPECT_EQ(Degeneracy(CompleteGraph(6)), 5u);
}

TEST(CoreNumbersTest, TreeIsOneCore) {
  const auto core = CoreNumbers(StarGraph(8));
  for (uint32_t c : core) EXPECT_EQ(c, 1u);
  EXPECT_EQ(Degeneracy(PathGraph(10)), 1u);
}

TEST(CoreNumbersTest, CycleIsTwoCore) {
  const auto core = CoreNumbers(CycleGraph(7));
  for (uint32_t c : core) EXPECT_EQ(c, 2u);
}

TEST(CoreNumbersTest, CliqueWithPendants) {
  // K4 on {0..3} + pendant chain 3-4-5.
  const Graph g = MakeGraph(
      6, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}});
  const auto core = CoreNumbers(g);
  EXPECT_EQ(core[0], 3u);
  EXPECT_EQ(core[1], 3u);
  EXPECT_EQ(core[2], 3u);
  EXPECT_EQ(core[3], 3u);
  EXPECT_EQ(core[4], 1u);
  EXPECT_EQ(core[5], 1u);
}

TEST(CoreNumbersTest, IsolatedNodesAreZeroCore) {
  const Graph g = MakeGraph(4, {{0, 1}});
  const auto core = CoreNumbers(g);
  EXPECT_EQ(core[2], 0u);
  EXPECT_EQ(core[3], 0u);
  EXPECT_EQ(core[0], 1u);
}

TEST(CoreNumbersTest, EveryNodeSurvivesItsOwnCore) {
  // Property: in the subgraph induced by {v : core(v) >= k}, every node
  // has degree >= k, for k = max core.
  Rng rng(9);
  const Graph g = SampleSkg({0.95, 0.55, 0.3}, 9, rng);
  const auto core = CoreNumbers(g);
  const uint32_t top = *std::max_element(core.begin(), core.end());
  for (Graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    if (core[u] < top) continue;
    uint32_t inside_degree = 0;
    for (Graph::NodeId v : g.Neighbors(u)) inside_degree += core[v] >= top;
    EXPECT_GE(inside_degree, top) << "node " << u;
  }
}

TEST(CoreNumbersTest, CoreNumberAtMostDegree) {
  Rng rng(11);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 8, rng);
  const auto core = CoreNumbers(g);
  for (Graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_LE(core[u], g.Degree(u));
  }
}

TEST(CoreHistogramTest, SumsToNodeCount) {
  Rng rng(13);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 8, rng);
  uint64_t total = 0;
  for (const auto& [k, count] : CoreHistogram(g)) total += count;
  EXPECT_EQ(total, g.NumNodes());
}

TEST(DegeneracyTest, EmptyGraph) {
  EXPECT_EQ(Degeneracy(Graph()), 0u);
  EXPECT_EQ(Degeneracy(MakeGraph(5, {})), 0u);
}

}  // namespace
}  // namespace dpkron
