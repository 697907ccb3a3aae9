// GraphView — the zero-copy CSR seam: view/Graph equivalence, raw-span
// backings, the shared fingerprint memo, PassCounter accounting, the
// fused node-stats kernel, and the pass-plan pins on
// ReleasePipeline::Compute and the Algorithm-1 estimator (the
// regression alarm for anyone un-fusing the degree/triangle family back
// into separate traversals).

#include "src/graph/graph_view.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/common/stat_cache.h"
#include "src/core/private_estimator.h"
#include "src/core/release.h"
#include "src/estimation/features.h"
#include "src/graph/components.h"
#include "src/graph/graph_io.h"
#include "src/graph/hop_plot.h"
#include "src/graph/node_stats.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::CompleteGraph;
using testing::MakeGraph;
using testing::PathGraph;
using testing::PerNodeTrianglesByCommonNeighbors;
using testing::PetersenGraph;
using testing::StarGraph;

TEST(GraphViewTest, DefaultViewIsTheEmptyGraph) {
  const GraphView view;
  EXPECT_EQ(view.NumNodes(), 0u);
  EXPECT_EQ(view.NumEdges(), 0u);
  EXPECT_TRUE(view.Edges().empty());
  ASSERT_EQ(view.Offsets().size(), 1u);  // CSR shape invariant: n + 1
  EXPECT_EQ(view.Offsets()[0], 0u);
}

TEST(GraphViewTest, ViewMatchesItsGraph) {
  const Graph g = PetersenGraph();
  const GraphView view = g;  // the implicit conversion every kernel uses
  EXPECT_EQ(view.NumNodes(), g.NumNodes());
  EXPECT_EQ(view.NumEdges(), g.NumEdges());
  for (Graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_EQ(view.Degree(u), g.Degree(u));
    const auto expected = g.Neighbors(u);
    const auto actual = view.Neighbors(u);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]);
    }
  }
  EXPECT_TRUE(view.HasEdge(0, 1));
  EXPECT_FALSE(view.HasEdge(0, 2));
  EXPECT_EQ(view.Edges(), g.Edges());
}

TEST(GraphViewTest, RawSpanBackingIsEquivalentToTheGraph) {
  const Graph g = CompleteGraph(5);
  // The MmapGraph shape: bare arrays, no Graph in sight.
  std::vector<uint32_t> offsets(g.Offsets().begin(), g.Offsets().end());
  std::vector<Graph::NodeId> adjacency(g.Adjacency().begin(),
                                       g.Adjacency().end());
  const GraphView view({offsets.data(), offsets.size()},
                       {adjacency.data(), adjacency.size()},
                       /*fingerprint_memo=*/nullptr);
  EXPECT_EQ(view.NumNodes(), g.NumNodes());
  EXPECT_EQ(view.NumEdges(), g.NumEdges());
  EXPECT_EQ(view.Edges(), g.Edges());
  // No memo: the digest is recomputed per call, and must still equal the
  // Graph's — same bytes, same fingerprint (the StatCache key contract).
  EXPECT_EQ(view.ContentFingerprint(), g.ContentFingerprint());
}

TEST(GraphViewTest, FingerprintMemoIsSharedAndTrusted) {
  const Graph g = PetersenGraph();
  // Whichever side computes first serves both: the view's digest lands
  // in the Graph's memo cell.
  const GraphView view = g;
  const uint64_t digest = view.ContentFingerprint();
  EXPECT_EQ(digest, g.ContentFingerprint());
  EXPECT_NE(digest, 0u);

  // A pre-seeded memo is trusted verbatim — the MmapGraph contract,
  // where the cell holds the .dpkb header checksum and the payload is
  // never re-hashed on the fast path. Seed a sentinel and observe it
  // served as-is.
  std::vector<uint32_t> offsets(g.Offsets().begin(), g.Offsets().end());
  std::vector<Graph::NodeId> adjacency(g.Adjacency().begin(),
                                       g.Adjacency().end());
  std::atomic<uint64_t> memo{0xfeedfacecafebeefull};
  const GraphView seeded({offsets.data(), offsets.size()},
                         {adjacency.data(), adjacency.size()}, &memo);
  EXPECT_EQ(seeded.ContentFingerprint(), 0xfeedfacecafebeefull);

  // An unseeded (0) memo computes once and memoizes.
  std::atomic<uint64_t> cold{0};
  const GraphView lazy({offsets.data(), offsets.size()},
                       {adjacency.data(), adjacency.size()}, &cold);
  EXPECT_EQ(lazy.ContentFingerprint(), digest);
  EXPECT_EQ(cold.load(), digest);
}

TEST(GraphViewTest, PassCounterRecordsOnePassPerTraversal) {
  const Graph g = PetersenGraph();
  PassCounter passes;
  const GraphView view = GraphView(g).WithPassCounter(&passes);

  (void)ComputeNodeStats(view);
  (void)ComputeNodeStats(view);
  (void)ConnectedComponents(view);
  (void)ExactHopPlot(view);

  EXPECT_EQ(passes.count("node_stats"), 2u);
  EXPECT_EQ(passes.count("components"), 1u);
  EXPECT_EQ(passes.count("exact_hop_plot"), 1u);
  EXPECT_EQ(passes.count("never_ran"), 0u);
  EXPECT_EQ(passes.total(), 4u);

  const auto snapshot = passes.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);  // label-ordered
  EXPECT_EQ(snapshot[0].first, "components");
  EXPECT_EQ(snapshot[0].second, 1u);
  EXPECT_EQ(snapshot[2].first, "node_stats");
  EXPECT_EQ(snapshot[2].second, 2u);

  // A plain copy of the view drops nothing; a counter-free view records
  // nothing (CountPass on null is the common production path).
  const GraphView unattached = g;
  (void)ComputeNodeStats(unattached);
  EXPECT_EQ(passes.count("node_stats"), 2u);
}

// The fused pass against oracles that share none of its code: a plain
// Degree(u) loop and the common-neighbor triangle count.
TEST(NodeStatsTest, FusedPassMatchesTheUnfusedKernels) {
  Rng rng(2031);
  const Graph graphs[] = {PetersenGraph(), CompleteGraph(7), StarGraph(9),
                          PathGraph(6),    MakeGraph(1, {}),  Graph(),
                          SampleSkg(Initiator2{0.9, 0.6, 0.2}, 9, rng)};
  for (const Graph& g : graphs) {
    const NodeStats fused = ComputeNodeStats(g);
    std::vector<uint32_t> degrees;
    for (Graph::NodeId u = 0; u < g.NumNodes(); ++u) {
      degrees.push_back(g.Degree(u));
    }
    EXPECT_EQ(fused.degrees, degrees);
    EXPECT_EQ(fused.triangles, PerNodeTrianglesByCommonNeighbors(g));
  }
}

// The node-stats-derived features are the exact ones: E from the view,
// H, T from the degrees and ∆ = Σ t_u / 3, against an oracle built from
// a plain Degree(u) loop and the common-neighbor triangle count — on
// every graph shape and on an mmap backing.
TEST(NodeStatsTest, FeaturesMatchTheComputeFeaturesOracle) {
  Rng rng(2028);
  const Graph sample = SampleSkg(Initiator2{0.9, 0.6, 0.2}, 9, rng);
  const std::string path = ::testing::TempDir() + "/node_stats_features_" +
                           std::to_string(::getpid()) + ".dpkb";
  ASSERT_TRUE(WriteBinaryGraph(sample, path).ok());
  auto mapped = MmapGraph::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const Graph empty, single_edge = MakeGraph(2, {{0, 1}}),
                     star = StarGraph(9), clique = CompleteGraph(7);
  const GraphView views[] = {empty, single_edge, star, clique, sample,
                             mapped.value()->view()};
  for (const GraphView& view : views) {
    GraphFeatures oracle;
    oracle.edges = double(view.NumEdges());
    uint64_t wedges = 0, tripins = 0;
    for (Graph::NodeId u = 0; u < view.NumNodes(); ++u) {
      const uint64_t d = view.Degree(u);
      if (d >= 2) wedges += d * (d - 1) / 2;
      if (d >= 3) tripins += d * (d - 1) * (d - 2) / 6;
    }
    oracle.hairpins = double(wedges);
    oracle.tripins = double(tripins);
    uint64_t corners = 0;
    for (uint64_t t : PerNodeTrianglesByCommonNeighbors(view)) corners += t;
    oracle.triangles = double(corners / 3);
    for (const GraphFeatures& f :
         {FeaturesFromNodeStats(view.NumEdges(), ComputeNodeStats(view)),
          ComputeFeaturesCached(view)}) {
      EXPECT_EQ(f.edges, oracle.edges);
      EXPECT_EQ(f.hairpins, oracle.hairpins);
      EXPECT_EQ(f.triangles, oracle.triangles);
      EXPECT_EQ(f.tripins, oracle.tripins);
    }
    std::vector<uint32_t> sorted;
    for (Graph::NodeId u = 0; u < view.NumNodes(); ++u) {
      sorted.push_back(view.Degree(u));
    }
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(SortedDegrees(ComputeNodeStats(view)), sorted);
  }
  std::remove(path.c_str());
}

TEST(NodeStatsTest, FusedPassCostsExactlyOneTraversal) {
  const Graph g = CompleteGraph(8);
  PassCounter passes;
  const NodeStats stats =
      ComputeNodeStats(GraphView(g).WithPassCounter(&passes));
  ASSERT_EQ(stats.degrees.size(), 8u);
  EXPECT_EQ(passes.count("node_stats"), 1u);
  // Any other label appearing here would mean the "fused" pass
  // re-walked the backing store.
  EXPECT_EQ(passes.total(), 1u);
}

// The whole pass plan of a release: the node stats, the hop plot (exact
// BFS or ANF rounds), SpMV for the spectral panels and components. Any
// other label would be a walker re-reading the CSR for a quantity the
// node-stats entry already holds.
void ExpectOnlyPassPlanLabels(const PassCounter& passes) {
  for (const auto& [label, count] : passes.Snapshot()) {
    EXPECT_TRUE(label == "node_stats" || label == "anf_round" ||
                label == "spmv" || label == "exact_hop_plot" ||
                label == "components")
        << label << " ran " << count << " times";
  }
}

// The pass-plan pin: Compute's degree/triangle/clustering family costs
// ONE traversal of the backing store ("node_stats"), the hop plot is
// exact BFS below the limit, and no per-statistic walker runs.
// This is the test that fails loudly if someone re-introduces separate
// degree or triangle walks into the pipeline.
TEST(ReleasePassPlanTest, ComputeFusesTheNodeStatsFamily) {
  Rng rng(2026);
  const Graph g = SampleSkg(Initiator2{0.9, 0.6, 0.2}, 8, rng);

  PassCounter passes;
  StatisticsOptions options;
  options.exact_hop_plot_limit = 4096;  // 2^8 nodes → exact BFS route
  const ReleasePipeline pipeline(options);
  Rng compute_rng(7);
  const GraphStatistics stats =
      pipeline.ComputeEphemeral(GraphView(g).WithPassCounter(&passes),
                                compute_rng);
  ASSERT_FALSE(stats.degree_histogram.empty());
  ASSERT_FALSE(stats.clustering_by_degree.empty());

  EXPECT_EQ(passes.count("node_stats"), 1u);
  EXPECT_EQ(passes.count("exact_hop_plot"), 1u);
  EXPECT_EQ(passes.count("anf_round"), 0u);
  ExpectOnlyPassPlanLabels(passes);

  // Identical statistics with no counter attached — instrumentation is
  // observation only.
  Rng plain_rng(7);
  EXPECT_EQ(pipeline.ComputeEphemeral(g, plain_rng), stats);
}

// Above the exact-BFS limit the hop plot switches to ANF: one
// "anf_round" pass per expansion round, still exactly one "node_stats".
TEST(ReleasePassPlanTest, LargeGraphRouteUsesAnfRounds) {
  Rng rng(2027);
  const Graph g = SampleSkg(Initiator2{0.9, 0.6, 0.2}, 8, rng);

  PassCounter passes;
  StatisticsOptions options;
  options.exact_hop_plot_limit = 8;  // force the ANF route
  options.anf_trials = 4;
  const ReleasePipeline pipeline(options);
  Rng compute_rng(7);
  (void)pipeline.ComputeEphemeral(GraphView(g).WithPassCounter(&passes),
                                  compute_rng);
  EXPECT_EQ(passes.count("node_stats"), 1u);
  EXPECT_EQ(passes.count("exact_hop_plot"), 0u);
  EXPECT_GE(passes.count("anf_round"), 1u);
  ExpectOnlyPassPlanLabels(passes);
}

// A whole Algorithm-1 release — the estimator, then the five panels of
// the same graph — takes ONE node-stats pass when the cache is on: the
// degree sequence, ∆, the exact features and the panels share the entry.
TEST(ReleasePassPlanTest, OneNodeStatsPassServesTheEstimatorAndThePanels) {
  Rng rng(2029);
  const Graph g = SampleSkg(Initiator2{0.9, 0.6, 0.2}, 8, rng);
  struct ScopedCache {
    ScopedCache() {
      StatCache::Instance().Clear();
      StatCache::Instance().set_enabled(true);
    }
    ~ScopedCache() {
      StatCache::Instance().set_enabled(false);
      StatCache::Instance().Clear();
    }
  } cache;

  PassCounter passes;
  const GraphView view = GraphView(g).WithPassCounter(&passes);
  Rng estimate_rng(11);
  ASSERT_TRUE(EstimatePrivateSkg(view, 0.5, 0.01, estimate_rng).ok());
  Rng stats_rng(7);
  (void)ReleasePipeline().Compute(view, stats_rng);
  EXPECT_EQ(passes.count("node_stats"), 1u);
  ExpectOnlyPassPlanLabels(passes);
}

// Without the cache the estimator still fetches the node stats once and
// feeds both mechanisms and the exact features from them.
TEST(ReleasePassPlanTest, EstimatorTakesOneNodeStatsPassWithoutTheCache) {
  Rng rng(2030);
  const Graph g = SampleSkg(Initiator2{0.9, 0.6, 0.2}, 8, rng);
  ASSERT_FALSE(StatCache::Instance().enabled());

  PassCounter passes;
  Rng estimate_rng(11);
  ASSERT_TRUE(EstimatePrivateSkg(GraphView(g).WithPassCounter(&passes), 0.5,
                                 0.01, estimate_rng)
                  .ok());
  EXPECT_EQ(passes.count("node_stats"), 1u);
  ExpectOnlyPassPlanLabels(passes);
}

}  // namespace
}  // namespace dpkron
