// Cross-module property sweeps on randomized graphs: invariants that must
// hold for every graph tie the independent implementations (node-stats
// triangles vs the common-neighbor oracle and clustering, hop plot vs
// components, degree formulas vs combinatorial counters, CSR I/O
// roundtrip, samplers vs each other) together. Parameterized over seeds
// for breadth.

#include <cmath>
#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/estimation/features.h"
#include "src/graph/clustering.h"
#include "src/graph/components.h"
#include "src/graph/degree.h"
#include "src/graph/extra_stats.h"
#include "src/graph/graph_io.h"
#include "src/graph/hop_plot.h"
#include "src/graph/node_stats.h"
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
  for (Graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    degrees.push_back(g.Degree(u));
  }
  const GraphFeatures exact = testing::ExactFeatures(g);
  EXPECT_DOUBLE_EQ(EdgesFromDegrees(degrees), double(g.NumEdges()));
  EXPECT_DOUBLE_EQ(HairpinsFromDegrees(degrees), exact.hairpins);
  EXPECT_DOUBLE_EQ(TripinsFromDegrees(degrees), exact.tripins);
}

TEST_P(GraphInvariantsTest, TriangleBoundsAndConsistency) {
  const Graph g = MakeRandomGraph();
  const NodeStats stats = ComputeNodeStats(g);
  const uint64_t triangles = TotalTriangles(stats);
  // 3∆ = Σ per-node participation, and the participation agrees with
  // the common-neighbor oracle; ∆ ≤ H/3.
  const uint64_t sum = std::accumulate(stats.triangles.begin(),
                                       stats.triangles.end(), uint64_t{0});
  EXPECT_EQ(sum, 3 * triangles);
  EXPECT_EQ(stats.triangles, testing::PerNodeTrianglesByCommonNeighbors(g));
  // Equivalently, global clustering 3∆/H lies in [0, 1].
  const GraphFeatures exact = FeaturesFromNodeStats(g.NumEdges(), stats);
  EXPECT_LE(3.0 * exact.triangles, exact.hairpins);
}

TEST_P(GraphInvariantsTest, LocalClusteringWithinUnitInterval) {
  const Graph g = MakeRandomGraph();
  const NodeStats stats = ComputeNodeStats(g);
  for (Graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    const double c = AverageClusteringFromParts({stats.degrees[u]},
                                                {stats.triangles[u]});
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
  for (const auto& [degree, c] :
       ClusteringByDegreeFromParts(stats.degrees, stats.triangles)) {
    EXPECT_GE(c, 0.0) << degree;
    EXPECT_LE(c, 1.0) << degree;
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
// 1's triangle count balance against the common-neighbor oracle's.
TEST_P(GraphInvariantsTest, TriangleParticipationMassBalance) {
  const Graph g = MakeRandomGraph();
  const std::vector<uint64_t> participation = ComputeNodeStats(g).triangles;
  const std::vector<uint64_t> oracle =
      testing::PerNodeTrianglesByCommonNeighbors(g);
  EXPECT_EQ(participation.size(), g.NumNodes());
  EXPECT_EQ(std::accumulate(participation.begin(), participation.end(),
                            uint64_t{0}),
            std::accumulate(oracle.begin(), oracle.end(), uint64_t{0}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphInvariantsTest,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

}  // namespace
}  // namespace dpkron
