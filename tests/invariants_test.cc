// Cross-module property sweeps on randomized graphs: invariants that must
// hold for every graph tie the independent implementations (triangle
// counter vs clustering, hop plot vs components, degree formulas vs
// combinatorial counters, CSR I/O roundtrip, samplers vs each other)
// together. Parameterized over seeds for breadth.

#include <cmath>
#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/graph/clustering.h"
#include "src/graph/components.h"
#include "src/graph/degree.h"
#include "src/graph/extra_stats.h"
#include "src/graph/graph_io.h"
#include "src/graph/hop_plot.h"
#include "src/graph/node_stats.h"
#include "src/graph/triangles.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

class GraphInvariantsTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Graph MakeRandomGraph() {
    Rng rng(GetParam());
    // Vary shape with the seed: density and order differ per instance.
    const uint32_t k = 5 + uint32_t(GetParam() % 4);           // 32..256
    const double b = 0.3 + 0.05 * double(GetParam() % 7);      // 0.3..0.6
    return SampleSkg({0.95, b, 0.25}, k, rng);
  }
};

TEST_P(GraphInvariantsTest, HandshakeLemma) {
  const Graph g = MakeRandomGraph();
  uint64_t degree_sum = 0;
  for (Graph::NodeId u = 0; u < g.NumNodes(); ++u) degree_sum += g.Degree(u);
  EXPECT_EQ(degree_sum, 2 * g.NumEdges());
}

TEST_P(GraphInvariantsTest, DegreeFormulasMatchCombinatorialCounts) {
  const Graph g = MakeRandomGraph();
  std::vector<double> degrees;
  for (uint32_t d : DegreeVector(g)) degrees.push_back(d);
  EXPECT_DOUBLE_EQ(EdgesFromDegrees(degrees), double(g.NumEdges()));
  EXPECT_DOUBLE_EQ(HairpinsFromDegrees(degrees), double(CountWedges(g)));
  EXPECT_DOUBLE_EQ(TripinsFromDegrees(degrees), double(CountTripins(g)));
}

TEST_P(GraphInvariantsTest, TriangleBoundsAndConsistency) {
  const Graph g = MakeRandomGraph();
  const uint64_t triangles = CountTriangles(g);
  // 3∆ = Σ per-node participation; ∆ ≤ H/3.
  const auto per_node = PerNodeTriangles(g);
  const uint64_t sum = std::accumulate(per_node.begin(), per_node.end(),
                                       uint64_t{0});
  EXPECT_EQ(sum, 3 * triangles);
  EXPECT_LE(3 * triangles, CountWedges(g));
  // Global clustering in [0, 1].
  const double gc = GlobalClustering(g);
  EXPECT_GE(gc, 0.0);
  EXPECT_LE(gc, 1.0);
}

TEST_P(GraphInvariantsTest, LocalClusteringWithinUnitInterval) {
  const Graph g = MakeRandomGraph();
  for (double c : LocalClustering(g)) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST_P(GraphInvariantsTest, HopPlotSaturatesAtComponentMass) {
  const Graph g = MakeRandomGraph();
  const auto plot = ExactHopPlot(g);
  // N(∞) = Σ_components size², including self-pairs.
  const ComponentInfo info = ConnectedComponents(g);
  uint64_t mass = 0;
  for (uint32_t size : info.sizes) mass += uint64_t{size} * size;
  EXPECT_EQ(plot.back(), mass);
  EXPECT_EQ(plot.front(), g.NumNodes());
}

TEST_P(GraphInvariantsTest, CoreNumbersBelowDegreeAndDegeneracyBound) {
  const Graph g = MakeRandomGraph();
  const auto core = CoreNumbers(g);
  uint32_t degeneracy = 0;
  for (Graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_LE(core[u], g.Degree(u));
    degeneracy = std::max(degeneracy, core[u]);
  }
  // m ≥ edges of a degeneracy-d graph bound: m ≤ d·n.
  EXPECT_LE(g.NumEdges(), uint64_t{degeneracy} * g.NumNodes() + 1);
}

TEST_P(GraphInvariantsTest, EdgeListRoundTripPreservesGraph) {
  const Graph g = MakeRandomGraph();
  // Per-instance file name: `ctest -j` runs each parameterized instance
  // as its own process, and a shared path races write against read.
  const std::string path = ::testing::TempDir() + "/invariant_roundtrip_" +
                           std::to_string(GetParam()) + ".txt";
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  const auto back = ReadEdgeList(path);
  ASSERT_TRUE(back.ok());
  // Densification may renumber isolated-node-free graphs identically;
  // compare canonical edge sets after mapping by first appearance: for
  // graphs whose nodes all appear in edges in increasing order this is
  // the identity. Compare sizes plus degree multiset (isomorphism-safe
  // invariants).
  EXPECT_EQ(back.value().NumEdges(), g.NumEdges());
  auto degrees_a = SortedDegrees(ComputeNodeStats(g));
  auto degrees_b = SortedDegrees(ComputeNodeStats(back.value()));
  // Reader drops isolated nodes; strip zeros before comparing.
  degrees_a.erase(degrees_a.begin(),
                  std::find_if(degrees_a.begin(), degrees_a.end(),
                               [](uint32_t d) { return d > 0; }));
  EXPECT_EQ(degrees_a, degrees_b);
  std::remove(path.c_str());
}

// Σ_u t_u = 3·∆: the node_stats participation counts behind Algorithm
// 1's triangle count agree with the direct triangle counter.
TEST_P(GraphInvariantsTest, TriangleParticipationMassBalance) {
  const Graph g = MakeRandomGraph();
  const std::vector<uint64_t> participation = ComputeNodeStats(g).triangles;
  EXPECT_EQ(participation.size(), g.NumNodes());
  EXPECT_EQ(std::accumulate(participation.begin(), participation.end(),
                            uint64_t{0}),
            3 * CountTriangles(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphInvariantsTest,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

}  // namespace
}  // namespace dpkron
