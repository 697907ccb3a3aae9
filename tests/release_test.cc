#include "src/core/release.h"

#include <cmath>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/graph/degree.h"
#include "src/graph/hop_plot.h"
#include "src/linalg/lanczos.h"
#include "src/linalg/network_value.h"
#include "src/skg/moments.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

TEST(ComputeStatisticsTest, AllPanelsPopulatedOnRealGraph) {
  Rng rng(1);
  const Graph g = ReleasePipeline().Sample({0.95, 0.55, 0.25}, 9, rng);
  const GraphStatistics stats = ReleasePipeline().Compute(g, rng);
  EXPECT_FALSE(stats.degree_histogram.empty());
  EXPECT_GE(stats.hop_plot.size(), 2u);
  EXPECT_FALSE(stats.scree.empty());
  EXPECT_FALSE(stats.network_value.empty());
  EXPECT_FALSE(stats.clustering_by_degree.empty());
}

TEST(ComputeStatisticsTest, HistogramCountsSumToNodes) {
  Rng rng(2);
  const Graph g = ReleasePipeline().Sample({0.9, 0.5, 0.2}, 8, rng);
  const GraphStatistics stats = ReleasePipeline().Compute(g, rng);
  double total = 0.0;
  for (const auto& [degree, count] : stats.degree_histogram) total += count;
  EXPECT_DOUBLE_EQ(total, double(g.NumNodes()));
}

TEST(ComputeStatisticsTest, ScreeSortedDescending) {
  Rng rng(3);
  const Graph g = ReleasePipeline().Sample({0.9, 0.5, 0.2}, 8, rng);
  StatisticsOptions options;
  options.num_singular_values = 20;
  const GraphStatistics stats = ReleasePipeline(options).Compute(g, rng);
  ASSERT_EQ(stats.scree.size(), 20u);
  for (size_t i = 1; i < stats.scree.size(); ++i) {
    EXPECT_GE(stats.scree[i - 1], stats.scree[i]);
  }
}

TEST(ComputeStatisticsTest, EdgelessGraphHandled) {
  Rng rng(4);
  const GraphStatistics stats =
      ReleasePipeline().Compute(testing::MakeGraph(16, {}), rng);
  EXPECT_TRUE(stats.scree.empty());
  EXPECT_TRUE(stats.network_value.empty());
  EXPECT_TRUE(stats.clustering_by_degree.empty());
  ASSERT_EQ(stats.degree_histogram.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.degree_histogram[0].second, 16.0);
}

TEST(ComputeStatisticsTest, AnfKicksInAboveLimit) {
  Rng rng(5);
  const Graph g = ReleasePipeline().Sample({0.9, 0.5, 0.2}, 9, rng);
  StatisticsOptions exact_opts;
  exact_opts.exact_hop_plot_limit = 4096;
  StatisticsOptions anf_opts;
  anf_opts.exact_hop_plot_limit = 16;  // force ANF
  const auto exact = ReleasePipeline(exact_opts).Compute(g, rng);
  const auto approx = ReleasePipeline(anf_opts).Compute(g, rng);
  ASSERT_GE(approx.hop_plot.size(), 2u);
  // Saturation levels should agree within sketch error.
  EXPECT_NEAR(approx.hop_plot.back() / exact.hop_plot.back(), 1.0, 0.2);
}

TEST(ExpectedStatisticsTest, AveragesReduceVariance) {
  const Initiator2 theta{0.9, 0.5, 0.2};
  const uint32_t k = 8;
  Rng rng(6);
  const GraphStatistics mean = ReleasePipeline().Expected(theta, k, 12, rng);
  // Total degree mass ≈ 2·E[E] (each realization contributes all nodes).
  double mass = 0.0;
  for (const auto& [degree, count] : mean.degree_histogram) {
    mass += degree * count;
  }
  const double expected = 2.0 * ExpectedEdges(theta, k);
  EXPECT_NEAR(mass, expected, 0.15 * expected);
}

TEST(ExpectedStatisticsTest, HopPlotMonotone) {
  Rng rng(7);
  const GraphStatistics mean =
      ReleasePipeline().Expected({0.9, 0.5, 0.2}, 8, 5, rng);
  for (size_t h = 1; h < mean.hop_plot.size(); ++h) {
    EXPECT_GE(mean.hop_plot[h], mean.hop_plot[h - 1] - 1e-9);
  }
}

// Compute's spectral panels are the free kernels it runs, drawing the
// rng in the same order; a 512-node graph takes the exact hop plot,
// which draws nothing.
TEST(ReleasePipelineTest, ComputeMatchesFreeFunction) {
  Rng rng_a(9), rng_b(9);
  const Graph g = ReleasePipeline().Sample({0.95, 0.55, 0.25}, 9, rng_a);
  const Graph g2 = ReleasePipeline().Sample({0.95, 0.55, 0.25}, 9, rng_b);
  const GraphStatistics via_pipeline = ReleasePipeline().Compute(g, rng_a);
  const std::vector<uint64_t> hops = ExactHopPlot(g2);
  EXPECT_EQ(via_pipeline.hop_plot,
            std::vector<double>(hops.begin(), hops.end()));
  EXPECT_EQ(via_pipeline.scree, TopSingularValues(g2, 50, rng_b));
  EXPECT_EQ(via_pipeline.network_value, NetworkValue(g2, rng_b));
}

TEST(ReleasePipelineTest, ExpectedIsReproducibleFromSeed) {
  const ReleasePipeline pipeline;
  Rng rng_a(10), rng_b(10);
  const GraphStatistics a = pipeline.Expected({0.9, 0.5, 0.2}, 7, 4, rng_a);
  const GraphStatistics b = pipeline.Expected({0.9, 0.5, 0.2}, 7, 4, rng_b);
  EXPECT_EQ(a, b);
}

TEST(SampleSyntheticGraphTest, MethodsProduceSimilarDensity) {
  const Initiator2 theta{0.95, 0.5, 0.2};
  const uint32_t k = 9;
  Rng rng(8);
  double exact_edges = 0, fast_edges = 0;
  for (int r = 0; r < 10; ++r) {
    exact_edges += double(
        SampleSkg(theta, k, rng, {SkgSampleMethod::kExact}).NumEdges());
    fast_edges += double(
        SampleSkg(theta, k, rng, {SkgSampleMethod::kBallDrop}).NumEdges());
  }
  EXPECT_NEAR(fast_edges / exact_edges, 1.0, 0.1);
}

}  // namespace
}  // namespace dpkron
