#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "src/estimation/features.h"
#include "src/graph/clustering.h"
#include "src/graph/degree.h"
#include "src/graph/node_stats.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::CommonNeighbors;
using testing::CompleteGraph;
using testing::CycleGraph;
using testing::ExactFeatures;
using testing::MakeGraph;
using testing::PathGraph;
using testing::PetersenGraph;
using testing::StarGraph;

uint64_t TrianglesOf(const Graph& g) {
  return TotalTriangles(ComputeNodeStats(g));
}

double AverageClusteringOf(const Graph& g) {
  const NodeStats stats = ComputeNodeStats(g);
  return AverageClusteringFromParts(stats.degrees, stats.triangles);
}

std::vector<std::pair<uint32_t, double>> ClusteringByDegreeOf(
    const Graph& g) {
  const NodeStats stats = ComputeNodeStats(g);
  return ClusteringByDegreeFromParts(stats.degrees, stats.triangles);
}

// Transitivity 3∆ / H, from the exact features.
double TransitivityOf(const Graph& g) {
  const GraphFeatures f = ExactFeatures(g);
  return f.hairpins == 0.0 ? 0.0 : 3.0 * f.triangles / f.hairpins;
}

TEST(DegreeTest, VectorAndSorted) {
  const Graph g = StarGraph(5);
  const NodeStats stats = ComputeNodeStats(g);
  const auto& d = stats.degrees;
  EXPECT_EQ(d[0], 4u);
  for (int v = 1; v < 5; ++v) EXPECT_EQ(d[v], 1u);
  const auto sorted = SortedDegrees(stats);
  EXPECT_EQ(sorted.front(), 1u);
  EXPECT_EQ(sorted.back(), 4u);
}

TEST(DegreeTest, HistogramOmitsEmptyDegrees) {
  const Graph g = StarGraph(5);
  const auto hist = DegreeHistogramFromDegrees(ComputeNodeStats(g).degrees);
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0], (std::pair<uint32_t, uint64_t>{1, 4}));
  EXPECT_EQ(hist[1], (std::pair<uint32_t, uint64_t>{4, 1}));
}

// Closed-form star counts: K_n has C(n,2) edges, 3·C(n,3) wedges,
// C(n,3) triangles, 4·C(n,4)·... — tripins are n·C(n-1,3).
TEST(StarCountsTest, CompleteGraphCounts) {
  const Graph g = CompleteGraph(6);
  EXPECT_EQ(g.NumEdges(), 15u);
  const GraphFeatures f = ExactFeatures(g);
  EXPECT_EQ(f.edges, 15.0);
  EXPECT_EQ(f.hairpins, 60.0);   // 6·C(5,2)
  EXPECT_EQ(f.tripins, 60.0);    // 6·C(5,3)
  EXPECT_EQ(f.triangles, 20.0);  // C(6,3)
}

TEST(StarCountsTest, PathAndCycle) {
  EXPECT_EQ(ExactFeatures(PathGraph(5)).hairpins, 3.0);
  EXPECT_EQ(ExactFeatures(PathGraph(5)).tripins, 0.0);
  EXPECT_EQ(ExactFeatures(CycleGraph(5)).hairpins, 5.0);
  EXPECT_EQ(TrianglesOf(CycleGraph(5)), 0u);
  EXPECT_EQ(TrianglesOf(CycleGraph(3)), 1u);
}

TEST(StarCountsTest, StarGraph) {
  const GraphFeatures f = ExactFeatures(StarGraph(6));  // center degree 5
  EXPECT_EQ(f.hairpins, 10.0);  // C(5,2)
  EXPECT_EQ(f.tripins, 10.0);   // C(5,3)
  EXPECT_EQ(f.triangles, 0.0);
}

TEST(StarCountsTest, PetersenGraph) {
  const Graph g = PetersenGraph();
  EXPECT_EQ(g.NumEdges(), 15u);
  const GraphFeatures f = ExactFeatures(g);
  EXPECT_EQ(f.hairpins, 30.0);  // 10 nodes · C(3,2)
  EXPECT_EQ(f.tripins, 10.0);   // 10 · C(3,3)
  EXPECT_EQ(f.triangles, 0.0);  // girth 5
}

TEST(DegreeFormulaTest, MatchesCombinatorialCountsOnIntegers) {
  const Graph g = PetersenGraph();
  std::vector<double> degrees;
  for (Graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    degrees.push_back(g.Degree(u));
  }
  const GraphFeatures exact = ExactFeatures(g);
  EXPECT_DOUBLE_EQ(EdgesFromDegrees(degrees), double(g.NumEdges()));
  EXPECT_DOUBLE_EQ(HairpinsFromDegrees(degrees), exact.hairpins);
  EXPECT_DOUBLE_EQ(TripinsFromDegrees(degrees), exact.tripins);
}

TEST(DegreeFormulaTest, FractionalDegrees) {
  const std::vector<double> degrees = {2.5, 2.5};
  EXPECT_DOUBLE_EQ(EdgesFromDegrees(degrees), 2.5);
  EXPECT_DOUBLE_EQ(HairpinsFromDegrees(degrees), 2.5 * 1.5);
  EXPECT_DOUBLE_EQ(TripinsFromDegrees(degrees), 2 * 2.5 * 1.5 * 0.5 / 6);
}

TEST(TrianglesTest, PerNodeSumsToThreeTimesTotal) {
  const NodeStats stats = ComputeNodeStats(CompleteGraph(7));
  uint64_t sum = 0;
  for (uint64_t t : stats.triangles) sum += t;
  EXPECT_EQ(sum, 3 * TotalTriangles(stats));
  EXPECT_EQ(TotalTriangles(stats), 35u);  // C(7,3)
  for (uint64_t t : stats.triangles) EXPECT_EQ(t, 15u);  // C(6,2)
}

TEST(TrianglesTest, DisjointTriangles) {
  const Graph g = MakeGraph(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  EXPECT_EQ(TrianglesOf(g), 2u);
}

TEST(TrianglesTest, CommonNeighbors) {
  // Diamond: 0-1, 0-2, 1-2, 1-3, 2-3.
  const Graph g = MakeGraph(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(CommonNeighbors(g, 1, 2), 2u);  // 0 and 3
  EXPECT_EQ(CommonNeighbors(g, 0, 3), 2u);  // 1 and 2
  EXPECT_EQ(CommonNeighbors(g, 0, 1), 1u);  // 2
}

TEST(TrianglesTest, EmptyAndEdgeless) {
  EXPECT_EQ(TrianglesOf(Graph()), 0u);
  EXPECT_EQ(TrianglesOf(MakeGraph(5, {})), 0u);
}

TEST(ClusteringTest, CompleteGraphIsFullyClustered) {
  const Graph g = CompleteGraph(5);
  const auto by_degree = ClusteringByDegreeOf(g);
  ASSERT_EQ(by_degree.size(), 1u);
  EXPECT_EQ(by_degree[0].first, 4u);
  EXPECT_DOUBLE_EQ(by_degree[0].second, 1.0);
  EXPECT_DOUBLE_EQ(AverageClusteringOf(g), 1.0);
  EXPECT_DOUBLE_EQ(TransitivityOf(g), 1.0);
}

TEST(ClusteringTest, TriangleFreeGraphIsZero) {
  EXPECT_DOUBLE_EQ(AverageClusteringOf(PetersenGraph()), 0.0);
  EXPECT_DOUBLE_EQ(TransitivityOf(PetersenGraph()), 0.0);
}

TEST(ClusteringTest, DiamondValues) {
  const Graph g = MakeGraph(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  const NodeStats stats = ComputeNodeStats(g);
  EXPECT_EQ(stats.triangles, (std::vector<uint64_t>{1, 2, 2, 1}));
  // One node at a time: c_0 = c_3 = 1 (deg 2, 1 triangle) and
  // c_1 = c_2 = 2/3 (deg 3, 2 triangles).
  const double expected[] = {1.0, 2.0 / 3.0, 2.0 / 3.0, 1.0};
  for (size_t u = 0; u < 4; ++u) {
    EXPECT_DOUBLE_EQ(AverageClusteringFromParts({stats.degrees[u]},
                                                {stats.triangles[u]}),
                     expected[u])
        << u;
  }
  EXPECT_DOUBLE_EQ(AverageClusteringOf(g), (1.0 + 2.0 / 3.0) / 2.0);
  // Global: 3∆/H = 6/8.
  EXPECT_DOUBLE_EQ(TransitivityOf(g), 6.0 / 8.0);
}

TEST(ClusteringTest, ByDegreeGroups) {
  const Graph g = MakeGraph(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  const auto by_degree = ClusteringByDegreeOf(g);
  ASSERT_EQ(by_degree.size(), 2u);
  EXPECT_EQ(by_degree[0].first, 2u);
  EXPECT_DOUBLE_EQ(by_degree[0].second, 1.0);
  EXPECT_EQ(by_degree[1].first, 3u);
  EXPECT_DOUBLE_EQ(by_degree[1].second, 2.0 / 3.0);
}

TEST(ClusteringTest, DegreeOneNodesExcluded) {
  const Graph g = StarGraph(5);
  EXPECT_DOUBLE_EQ(AverageClusteringOf(g), 0.0);  // only the center eligible
  const auto by_degree = ClusteringByDegreeOf(g);
  ASSERT_EQ(by_degree.size(), 1u);
  EXPECT_EQ(by_degree[0].first, 4u);
}

}  // namespace
}  // namespace dpkron
