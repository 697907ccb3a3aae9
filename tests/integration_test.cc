// End-to-end integration tests: the full paper pipeline on small-but-real
// workloads — dataset → (KronFit | KronMom | Private) → synthetic sample →
// statistics comparison. These encode the *qualitative* claims of §4.2.

#include <cmath>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/core/private_estimator.h"
#include "src/core/release.h"
#include "src/datasets/affiliation.h"
#include "src/datasets/preferential_attachment.h"
#include "src/estimation/kronmom.h"
#include "src/graph/clustering.h"
#include "src/graph/hop_plot.h"
#include "src/kronfit/kronfit.h"
#include "src/skg/sampler.h"
#include "src/graph/node_stats.h"

namespace dpkron {
namespace {

// Shared scaled-down co-authorship-like workload (keeps runtime modest).
Graph SmallCoauthorship(uint64_t seed) {
  AffiliationOptions options;
  options.num_authors = 1024;
  options.num_papers = 640;
  Rng rng(seed);
  return AffiliationGraph(options, rng);
}

TEST(IntegrationTest, PrivateTracksKronMomOnCoauthorshipLike) {
  const Graph g = SmallCoauthorship(11);
  Rng rng(12);
  const KronMomResult kronmom = FitKronMom(g);
  const auto private_fit = EstimatePrivateSkg(g, 0.2, 0.01, rng);
  ASSERT_TRUE(private_fit.ok());
  // The paper's central empirical claim: private ≈ non-private moments
  // estimate. Small graphs are noisier than the paper's (ε noise is
  // size-independent while counts shrink), so allow a loose band.
  EXPECT_LT(MaxAbsDifference(private_fit.value().theta, kronmom.theta), 0.15);
}

TEST(IntegrationTest, AllThreeEstimatorsProduceSimilarEdgeCounts) {
  const Graph g = SmallCoauthorship(21);
  Rng rng(22);
  const uint32_t k = ChooseKroneckerOrder(g.NumNodes());
  const KronMomResult kronmom = FitKronMom(g);
  KronFitOptions kf_options;
  kf_options.iterations = 30;
  const KronFitResult kronfit = FitKronFit(g, rng, kf_options);
  const auto private_fit = EstimatePrivateSkg(g, 0.5, 0.01, rng);
  ASSERT_TRUE(private_fit.ok());

  const double truth = double(g.NumEdges());
  const double mom_edges = ExpectedEdges(kronmom.theta, k);
  const double fit_edges = ExpectedEdges(kronfit.theta, k);
  const double private_edges = ExpectedEdges(private_fit.value().theta, k);
  EXPECT_NEAR(mom_edges, truth, 0.15 * truth);
  EXPECT_NEAR(private_edges, truth, 0.25 * truth);
  EXPECT_NEAR(fit_edges, truth, 0.60 * truth);  // approximate MLE is coarser
}

TEST(IntegrationTest, SyntheticGraphsFromPrivateEstimateMatchStatistics) {
  // Fit privately, then sample a synthetic graph and compare the paper's
  // panel statistics against the original in shape.
  const Graph original = SmallCoauthorship(31);
  Rng rng(32);
  const auto fit = EstimatePrivateSkg(original, 0.5, 0.01, rng);
  ASSERT_TRUE(fit.ok());
  const Graph synthetic = SampleSkg(fit.value().theta, fit.value().k, rng);

  // Edge counts in the same ballpark.
  EXPECT_NEAR(double(synthetic.NumEdges()), double(original.NumEdges()),
              0.35 * double(original.NumEdges()));

  // Hop plots saturate within a couple of hops of each other.
  const auto hops_original = ExactHopPlot(original);
  const auto hops_synthetic = ExactHopPlot(synthetic);
  EXPECT_NEAR(double(EffectiveDiameter(hops_original)),
              double(EffectiveDiameter(hops_synthetic)), 3.0);
}

TEST(IntegrationTest, SkgUnderfitsCoauthorshipClustering) {
  // §4.2: "the SKG models the clustering coefficient well for AS20 but
  // not for CA-GrQC and CA-HepTh". Union-of-cliques originals have much
  // higher clustering than any fitted SKG realization.
  const Graph original = SmallCoauthorship(41);
  Rng rng(42);
  const KronMomResult fit = FitKronMom(original);
  const Graph synthetic = SampleSkg(fit.theta, fit.k, rng);
  const NodeStats original_stats = ComputeNodeStats(original);
  const NodeStats synthetic_stats = ComputeNodeStats(synthetic);
  EXPECT_GT(AverageClusteringFromParts(original_stats.degrees,
                                       original_stats.triangles),
            5.0 * AverageClusteringFromParts(synthetic_stats.degrees,
                                             synthetic_stats.triangles) -
                1e-12);
}

TEST(IntegrationTest, AsLikeGraphDrivesCTowardZero) {
  // Table 1 AS20 row: KronMom c = 0.000. Preferential-attachment graphs
  // (core-periphery, no homophilous block) push c to the boundary.
  PreferentialAttachmentOptions options;
  options.num_nodes = 2048;
  options.edges_per_node = 4;
  Rng rng(51);
  const Graph g = PreferentialAttachmentGraph(options, rng);
  const KronMomResult fit = FitKronMom(g);
  EXPECT_LT(fit.theta.c, 0.1);
  EXPECT_GT(fit.theta.a, 0.85);
}

TEST(IntegrationTest, ReleasePipelineUnderSingleBudget) {
  // A custodian fits privately once and publishes; re-running with the
  // same budget object must fail (no double-dipping).
  const Graph g = SmallCoauthorship(61);
  Rng rng(62);
  PrivacyBudget budget(0.2, 0.01);
  const auto first = EstimatePrivateSkg(g, 0.2, 0.01, budget, rng);
  ASSERT_TRUE(first.ok());
  const auto second = EstimatePrivateSkg(g, 0.2, 0.01, budget, rng);
  EXPECT_FALSE(second.ok());
}

}  // namespace
}  // namespace dpkron
