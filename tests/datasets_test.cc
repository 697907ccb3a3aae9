#include "src/datasets/registry.h"

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/datasets/affiliation.h"
#include "src/datasets/preferential_attachment.h"
#include "src/graph/clustering.h"
#include "src/graph/node_stats.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

TEST(AffiliationTest, RespectsNodeBudgetAndDeterminism) {
  AffiliationOptions options;
  options.num_authors = 500;
  options.num_papers = 300;
  Rng rng1(1), rng2(1);
  const Graph g1 = AffiliationGraph(options, rng1);
  const Graph g2 = AffiliationGraph(options, rng2);
  EXPECT_EQ(g1.NumNodes(), 500u);
  EXPECT_EQ(g1.Edges(), g2.Edges());
}

TEST(AffiliationTest, ProducesHighClustering) {
  AffiliationOptions options;
  options.num_authors = 2000;
  options.num_papers = 1200;
  Rng rng(2);
  const Graph g = AffiliationGraph(options, rng);
  // Union-of-cliques structure → strong local clustering.
  const NodeStats stats = ComputeNodeStats(g);
  EXPECT_GT(AverageClusteringFromParts(stats.degrees, stats.triangles), 0.4);
}

TEST(AffiliationTest, HeavyTailedDegrees) {
  AffiliationOptions options;
  options.num_authors = 3000;
  options.num_papers = 2000;
  Rng rng(3);
  const Graph g = AffiliationGraph(options, rng);
  const auto degrees = SortedDegrees(ComputeNodeStats(g));
  const double max_degree = degrees.back();
  double sum = 0;
  for (uint32_t d : degrees) sum += d;
  const double mean_degree = sum / degrees.size();
  EXPECT_GT(max_degree, 8 * mean_degree);  // hub far above the mean
}

TEST(PreferentialAttachmentTest, EdgeCountFormula) {
  PreferentialAttachmentOptions options;
  options.num_nodes = 1000;
  options.edges_per_node = 4;
  Rng rng(4);
  const Graph g = PreferentialAttachmentGraph(options, rng);
  EXPECT_EQ(g.NumNodes(), 1000u);
  // Seed clique C(5,2)=10 plus ≈4 per arrival (duplicate-collisions may
  // drop a handful).
  EXPECT_NEAR(double(g.NumEdges()), 10 + 4.0 * (1000 - 5), 60.0);
}

TEST(PreferentialAttachmentTest, LowClusteringVsAffiliation) {
  Rng rng(5);
  PreferentialAttachmentOptions pa;
  pa.num_nodes = 2000;
  pa.edges_per_node = 4;
  const Graph g = PreferentialAttachmentGraph(pa, rng);
  const GraphFeatures f = testing::ExactFeatures(g);
  EXPECT_LT(3.0 * f.triangles / f.hairpins, 0.1);  // global clustering
}

TEST(PreferentialAttachmentTest, ConnectedByConstruction) {
  Rng rng(6);
  PreferentialAttachmentOptions pa;
  pa.num_nodes = 500;
  pa.edges_per_node = 2;
  const Graph g = PreferentialAttachmentGraph(pa, rng);
  // Every arriving node attaches to an existing one → one component.
  uint32_t isolated = 0;
  for (Graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    isolated += g.Degree(u) == 0;
  }
  EXPECT_EQ(isolated, 0u);
}

TEST(RegistryTest, FourPaperDatasets) {
  const auto& datasets = PaperDatasets();
  ASSERT_EQ(datasets.size(), 4u);
  EXPECT_EQ(datasets[0].paper_name, "CA-GrQC");
  EXPECT_EQ(datasets[1].paper_name, "CA-HepTh");
  EXPECT_EQ(datasets[2].paper_name, "AS20");
  EXPECT_EQ(datasets[3].kind, "kronecker");
  // Table 1 values sanity: all a ≈ 1 for the real networks.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(datasets[i].paper_kronmom.a, 0.98);
    EXPECT_GT(datasets[i].paper_private.a, 0.98);
  }
}

TEST(RegistryTest, CalibrationWithinTolerances) {
  Rng rng(7);
  const Graph grqc = CaGrQcLike(rng);
  EXPECT_EQ(grqc.NumNodes(), 5242u);
  EXPECT_NEAR(double(grqc.NumEdges()), 28980.0, 0.35 * 28980);

  const Graph as20 = As20Like(rng);
  EXPECT_EQ(as20.NumNodes(), 6474u);
  EXPECT_NEAR(double(as20.NumEdges()), 26467.0, 0.15 * 26467);
}

TEST(RegistryTest, SyntheticKroneckerShape) {
  Rng rng(8);
  const Graph g = SyntheticKronecker(rng);
  EXPECT_EQ(g.NumNodes(), 16384u);
  EXPECT_GT(g.NumEdges(), 10000u);
}

TEST(RegistryTest, MakeDatasetDispatch) {
  Rng rng(9);
  EXPECT_EQ(MakeDataset("AS20-like", rng).NumNodes(), 6474u);
}

TEST(RegistryTest, DispatchGoesThroughTheEntryGenerator) {
  // The registry entry IS the dispatch table: MakeDataset and a direct
  // call to the entry's generator are the same function.
  for (const DatasetInfo& info : PaperDatasets()) {
    ASSERT_NE(info.generator, nullptr) << info.name;
  }
  const DatasetInfo* as20 = FindDataset("AS20-like");
  ASSERT_NE(as20, nullptr);
  EXPECT_EQ(as20->generator, &As20Like);
  Rng rng_a(17), rng_b(17);
  EXPECT_EQ(MakeDataset("AS20-like", rng_a).Edges(),
            as20->generator(rng_b).Edges());
}

TEST(RegistryDeathTest, UnknownNameAborts) {
  Rng rng(10);
  EXPECT_DEATH(MakeDataset("no-such-dataset", rng), "unknown dataset");
}

}  // namespace
}  // namespace dpkron
