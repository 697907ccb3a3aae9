#include <cstdint>
#include <vector>

#include <gtest/gtest.h>
#include "src/graph/clustering.h"
#include "src/graph/degree.h"
#include "src/graph/node_stats.h"
#include "src/graph/triangles.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::CompleteGraph;
using testing::CycleGraph;
using testing::MakeGraph;
using testing::PathGraph;
using testing::PetersenGraph;
using testing::StarGraph;

TEST(DegreeTest, VectorAndSorted) {
  const Graph g = StarGraph(5);
  const auto d = DegreeVector(g);
  EXPECT_EQ(d[0], 4u);
  for (int v = 1; v < 5; ++v) EXPECT_EQ(d[v], 1u);
  const auto sorted = SortedDegrees(ComputeNodeStats(g));
  EXPECT_EQ(sorted.front(), 1u);
  EXPECT_EQ(sorted.back(), 4u);
  EXPECT_EQ(MaxDegree(g), 4u);
}

TEST(DegreeTest, HistogramOmitsEmptyDegrees) {
  const Graph g = StarGraph(5);
  const auto hist = DegreeHistogramFromDegrees(DegreeVector(g));
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0], (std::pair<uint32_t, uint64_t>{1, 4}));
  EXPECT_EQ(hist[1], (std::pair<uint32_t, uint64_t>{4, 1}));
}

// Closed-form star counts: K_n has C(n,2) edges, 3·C(n,3) wedges,
// C(n,3) triangles, 4·C(n,4)·... — tripins are n·C(n-1,3).
TEST(StarCountsTest, CompleteGraphCounts) {
  const Graph g = CompleteGraph(6);
  EXPECT_EQ(g.NumEdges(), 15u);
  EXPECT_EQ(CountWedges(g), 60u);  // 6·C(5,2)
  EXPECT_EQ(CountTripins(g), 6u * 10);  // 6·C(5,3) = 60
  EXPECT_EQ(CountTriangles(g), 20u);    // C(6,3)
}

TEST(StarCountsTest, PathAndCycle) {
  EXPECT_EQ(CountWedges(PathGraph(5)), 3u);
  EXPECT_EQ(CountTripins(PathGraph(5)), 0u);
  EXPECT_EQ(CountWedges(CycleGraph(5)), 5u);
  EXPECT_EQ(CountTriangles(CycleGraph(5)), 0u);
  EXPECT_EQ(CountTriangles(CycleGraph(3)), 1u);
}

TEST(StarCountsTest, StarGraph) {
  const Graph g = StarGraph(6);  // center degree 5
  EXPECT_EQ(CountWedges(g), 10u);   // C(5,2)
  EXPECT_EQ(CountTripins(g), 10u);  // C(5,3)
  EXPECT_EQ(CountTriangles(g), 0u);
}

TEST(StarCountsTest, PetersenGraph) {
  const Graph g = PetersenGraph();
  EXPECT_EQ(g.NumEdges(), 15u);
  EXPECT_EQ(CountWedges(g), 30u);     // 10 nodes · C(3,2)
  EXPECT_EQ(CountTripins(g), 10u);    // 10 · C(3,3)
  EXPECT_EQ(CountTriangles(g), 0u);   // girth 5
}

TEST(DegreeFormulaTest, MatchesCombinatorialCountsOnIntegers) {
  const Graph g = PetersenGraph();
  std::vector<double> degrees;
  for (uint32_t d : DegreeVector(g)) degrees.push_back(d);
  EXPECT_DOUBLE_EQ(EdgesFromDegrees(degrees), double(g.NumEdges()));
  EXPECT_DOUBLE_EQ(HairpinsFromDegrees(degrees), double(CountWedges(g)));
  EXPECT_DOUBLE_EQ(TripinsFromDegrees(degrees), double(CountTripins(g)));
}

TEST(DegreeFormulaTest, FractionalDegrees) {
  const std::vector<double> degrees = {2.5, 2.5};
  EXPECT_DOUBLE_EQ(EdgesFromDegrees(degrees), 2.5);
  EXPECT_DOUBLE_EQ(HairpinsFromDegrees(degrees), 2.5 * 1.5);
  EXPECT_DOUBLE_EQ(TripinsFromDegrees(degrees), 2 * 2.5 * 1.5 * 0.5 / 6);
}

TEST(TrianglesTest, PerNodeSumsToThreeTimesTotal) {
  const Graph g = CompleteGraph(7);
  const auto per_node = PerNodeTriangles(g);
  uint64_t sum = 0;
  for (uint64_t t : per_node) sum += t;
  EXPECT_EQ(sum, 3 * CountTriangles(g));
  for (uint64_t t : per_node) EXPECT_EQ(t, 15u);  // C(6,2)
}

TEST(TrianglesTest, DisjointTriangles) {
  const Graph g = MakeGraph(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  EXPECT_EQ(CountTriangles(g), 2u);
}

TEST(TrianglesTest, CommonNeighbors) {
  // Diamond: 0-1, 0-2, 1-2, 1-3, 2-3.
  const Graph g = MakeGraph(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(CommonNeighbors(g, 1, 2), 2u);  // 0 and 3
  EXPECT_EQ(CommonNeighbors(g, 0, 3), 2u);  // 1 and 2
  EXPECT_EQ(CommonNeighbors(g, 0, 1), 1u);  // 2
}

TEST(TrianglesTest, EmptyAndEdgeless) {
  EXPECT_EQ(CountTriangles(Graph()), 0u);
  EXPECT_EQ(CountTriangles(testing::MakeGraph(5, {})), 0u);
}

TEST(ClusteringTest, CompleteGraphIsFullyClustered) {
  const Graph g = CompleteGraph(5);
  for (double c : LocalClustering(g)) EXPECT_DOUBLE_EQ(c, 1.0);
  EXPECT_DOUBLE_EQ(AverageClustering(g), 1.0);
  EXPECT_DOUBLE_EQ(GlobalClustering(g), 1.0);
}

TEST(ClusteringTest, TriangleFreeGraphIsZero) {
  EXPECT_DOUBLE_EQ(AverageClustering(PetersenGraph()), 0.0);
  EXPECT_DOUBLE_EQ(GlobalClustering(PetersenGraph()), 0.0);
}

TEST(ClusteringTest, DiamondValues) {
  const Graph g = MakeGraph(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  const auto c = LocalClustering(g);
  EXPECT_DOUBLE_EQ(c[0], 1.0);            // deg 2, 1 triangle
  EXPECT_DOUBLE_EQ(c[3], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 2.0 / 3.0);      // deg 3, 2 triangles
  EXPECT_DOUBLE_EQ(c[2], 2.0 / 3.0);
  // Global: 3∆/H = 6/8.
  EXPECT_DOUBLE_EQ(GlobalClustering(g), 6.0 / 8.0);
}

TEST(ClusteringTest, ByDegreeGroups) {
  const Graph g = MakeGraph(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  const auto by_degree = ClusteringByDegree(g);
  ASSERT_EQ(by_degree.size(), 2u);
  EXPECT_EQ(by_degree[0].first, 2u);
  EXPECT_DOUBLE_EQ(by_degree[0].second, 1.0);
  EXPECT_EQ(by_degree[1].first, 3u);
  EXPECT_DOUBLE_EQ(by_degree[1].second, 2.0 / 3.0);
}

TEST(ClusteringTest, DegreeOneNodesExcluded) {
  const Graph g = StarGraph(5);
  EXPECT_DOUBLE_EQ(AverageClustering(g), 0.0);  // only the center eligible
  const auto by_degree = ClusteringByDegree(g);
  ASSERT_EQ(by_degree.size(), 1u);
  EXPECT_EQ(by_degree[0].first, 4u);
}

}  // namespace
}  // namespace dpkron
