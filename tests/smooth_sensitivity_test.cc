#include "src/dp/smooth_sensitivity.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/graph/graph_builder.h"
#include "src/graph/triangles.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::CompleteGraph;
using testing::CycleGraph;
using testing::MakeGraph;
using testing::PathGraph;
using testing::StarGraph;

// ---------------------------------------------------------------------------
// Local sensitivity at distance 0 on known graphs.
// ---------------------------------------------------------------------------

TEST(LocalSensitivityTest, CompleteGraph) {
  // Every pair of K_n has n-2 common neighbors.
  const TriangleSensitivityProfile profile(CompleteGraph(7));
  EXPECT_EQ(profile.LocalSensitivity(), 5u);
}

TEST(LocalSensitivityTest, StarHasOneCommonNeighbor) {
  const TriangleSensitivityProfile profile(StarGraph(8));
  EXPECT_EQ(profile.LocalSensitivity(), 1u);  // two leaves share the center
}

TEST(LocalSensitivityTest, PathPairs) {
  // P4: pairs (0,2) and (1,3) share one neighbor.
  const TriangleSensitivityProfile profile(PathGraph(4));
  EXPECT_EQ(profile.LocalSensitivity(), 1u);
}

TEST(LocalSensitivityTest, EdgelessGraphIsZero) {
  const TriangleSensitivityProfile profile(MakeGraph(6, {}));
  EXPECT_EQ(profile.LocalSensitivity(), 0u);
}

TEST(LocalSensitivityTest, TinyGraphsAreZero) {
  EXPECT_EQ(TriangleSensitivityProfile(MakeGraph(1, {})).LocalSensitivity(),
            0u);
  EXPECT_EQ(TriangleSensitivityProfile(MakeGraph(2, {{0, 1}}))
                .LocalSensitivity(),
            0u);
}

// ---------------------------------------------------------------------------
// Profile properties.
// ---------------------------------------------------------------------------

TEST(ProfileTest, MonotoneInDistanceAndCapped) {
  Rng rng(3);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 7, rng);
  const TriangleSensitivityProfile profile(g);
  uint64_t previous = 0;
  for (uint64_t s = 0; s <= 2 * g.NumNodes(); ++s) {
    const uint64_t ls = profile.LocalSensitivityAtDistance(s);
    EXPECT_GE(ls, previous);
    EXPECT_LE(ls, uint64_t{g.NumNodes()} - 2);
    previous = ls;
  }
  EXPECT_EQ(profile.LocalSensitivityAtDistance(4 * g.NumNodes()),
            uint64_t{g.NumNodes()} - 2);
}

TEST(ProfileTest, EmptyGraphProfileGrowsAtHalfRate) {
  // From the empty graph, s flips build ⌊s/2⌋ common neighbors for a pair.
  const TriangleSensitivityProfile profile(MakeGraph(12, {}));
  for (uint64_t s : {0ull, 1ull, 2ull, 5ull, 9ull}) {
    EXPECT_EQ(profile.LocalSensitivityAtDistance(s), s / 2);
  }
}

TEST(ProfileTest, FrontierIsStrictlyPareto) {
  Rng rng(5);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 7, rng);
  const TriangleSensitivityProfile profile(g);
  const auto& frontier = profile.frontier();
  ASSERT_FALSE(frontier.empty());
  for (size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_LT(frontier[i].first, frontier[i - 1].first);
    EXPECT_GT(frontier[i].second, frontier[i - 1].second);
  }
}

// ---------------------------------------------------------------------------
// Brute force: LS^(s) must equal the max over all graphs within edit
// distance s of the true local sensitivity. Exhaustive for n = 5, s ≤ 2.
// ---------------------------------------------------------------------------

uint64_t BruteLocalSensitivity(const Graph& g) {
  uint64_t best = 0;
  for (Graph::NodeId i = 0; i < g.NumNodes(); ++i) {
    for (Graph::NodeId j = i + 1; j < g.NumNodes(); ++j) {
      best = std::max(best, uint64_t{CommonNeighbors(g, i, j)});
    }
  }
  return best;
}

Graph FlipEdges(const Graph& g, const std::vector<uint32_t>& flip_pairs) {
  // Pair index p encodes (i, j); flip membership of each listed pair.
  const uint32_t n = g.NumNodes();
  std::vector<std::pair<Graph::NodeId, Graph::NodeId>> pairs;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  GraphBuilder builder(n);
  for (uint32_t p = 0; p < pairs.size(); ++p) {
    const bool present = g.HasEdge(pairs[p].first, pairs[p].second);
    const bool flipped =
        std::find(flip_pairs.begin(), flip_pairs.end(), p) != flip_pairs.end();
    if (present != flipped) builder.AddEdge(pairs[p].first, pairs[p].second);
  }
  return builder.Build();
}

uint64_t BruteLsAtDistance(const Graph& g, uint32_t s) {
  const uint32_t num_pairs = g.NumNodes() * (g.NumNodes() - 1) / 2;
  uint64_t best = BruteLocalSensitivity(g);
  if (s >= 1) {
    for (uint32_t p = 0; p < num_pairs; ++p) {
      best = std::max(best, BruteLocalSensitivity(FlipEdges(g, {p})));
    }
  }
  if (s >= 2) {
    for (uint32_t p = 0; p < num_pairs; ++p) {
      for (uint32_t q = p + 1; q < num_pairs; ++q) {
        best = std::max(best, BruteLocalSensitivity(FlipEdges(g, {p, q})));
      }
    }
  }
  return best;
}

class ProfileBruteForceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ProfileBruteForceTest, MatchesExhaustiveSearch) {
  // Parameter seeds a random 5-node graph (all 1024 graphs reachable).
  const uint32_t seed = GetParam();
  Rng rng(seed);
  GraphBuilder builder(5);
  for (uint32_t i = 0; i < 5; ++i) {
    for (uint32_t j = i + 1; j < 5; ++j) {
      if (rng.NextBernoulli(0.4)) builder.AddEdge(i, j);
    }
  }
  const Graph g = builder.Build();
  const TriangleSensitivityProfile profile(g);
  ASSERT_TRUE(profile.exact());
  for (uint32_t s = 0; s <= 2; ++s) {
    EXPECT_EQ(profile.LocalSensitivityAtDistance(s), BruteLsAtDistance(g, s))
        << "seed " << seed << " s " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ProfileBruteForceTest,
                         ::testing::Range(0u, 25u));

// ---------------------------------------------------------------------------
// Smooth sensitivity.
// ---------------------------------------------------------------------------

TEST(SmoothSensitivityTest, FarPairBudgetFallbackIsReportedNotSilent) {
  // A 400-leaf star has diameter 2, so the far-pair search must inspect
  // all ~80k degree-sorted pairs — past its 50k budget — and fall back
  // to the conservative bound. The fallback must be visible both on the
  // profile and through PrivateTriangleCount's result, which is what
  // the scenario engine records into the run JSON (the pre-fix release
  // path dropped the flag on the floor).
  const Graph star = StarGraph(400);
  const TriangleSensitivityProfile profile(star);
  EXPECT_FALSE(profile.exact());

  Rng rng(5);
  const PrivateTriangleResult fallback =
      PrivateTriangleCount(star, 1.0, 0.01, rng);
  EXPECT_FALSE(fallback.exact_sensitivity);

  // A small graph stays exact and says so.
  const PrivateTriangleResult small =
      PrivateTriangleCount(CompleteGraph(10), 1.0, 0.01, rng);
  EXPECT_TRUE(small.exact_sensitivity);
}

TEST(SmoothSensitivityTest, AtLeastLocalSensitivity) {
  Rng rng(7);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 7, rng);
  const TriangleSensitivityProfile profile(g);
  for (double beta : {0.01, 0.05, 0.5}) {
    EXPECT_GE(profile.SmoothSensitivity(beta),
              double(profile.LocalSensitivity()));
  }
}

TEST(SmoothSensitivityTest, DecreasingInBeta) {
  Rng rng(9);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 7, rng);
  const TriangleSensitivityProfile profile(g);
  double previous = 1e300;
  for (double beta : {0.001, 0.01, 0.1, 1.0}) {
    const double ss = profile.SmoothSensitivity(beta);
    EXPECT_LE(ss, previous);
    previous = ss;
  }
}

TEST(SmoothSensitivityTest, LargeBetaApproachesLocalSensitivity) {
  const Graph g = CompleteGraph(10);
  const TriangleSensitivityProfile profile(g);
  // K_10: LS already at the cap n-2 = 8; SS = 8 for any beta.
  EXPECT_NEAR(profile.SmoothSensitivity(10.0), 8.0, 1e-12);
  EXPECT_NEAR(profile.SmoothSensitivity(0.001), 8.0, 1e-12);
}

TEST(SmoothSensitivityTest, EmptyGraphKnownValue) {
  // SS = max_s e^{-βs}·⌊s/2⌋ over s, capped at n−2.
  const uint32_t n = 64;
  const double beta = 0.1;
  const TriangleSensitivityProfile profile(MakeGraph(n, {}));
  double expected = 0.0;
  for (uint64_t s = 0; s <= 2 * n; ++s) {
    expected = std::max(
        expected, std::exp(-beta * double(s)) *
                      double(std::min<uint64_t>(s / 2, n - 2)));
  }
  EXPECT_NEAR(profile.SmoothSensitivity(beta), expected, 1e-12);
}

// The privacy-critical property: SS is β-smooth, i.e. for edge-neighbor
// graphs G, G' we must have SS(G) ≤ e^β · SS(G').
TEST(SmoothSensitivityTest, SmoothnessAcrossRandomNeighbors) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = SampleSkg({0.85, 0.5, 0.3}, 6, rng);  // 64 nodes
    const uint32_t n = g.NumNodes();
    // Flip a random pair.
    const uint32_t i = uint32_t(rng.NextBounded(n));
    uint32_t j = uint32_t(rng.NextBounded(n));
    if (i == j) j = (j + 1) % n;
    GraphBuilder builder(n);
    g.ForEachEdge([&](Graph::NodeId u, Graph::NodeId v) {
      if ((u == std::min(i, j) && v == std::max(i, j))) return;  // remove
      builder.AddEdge(u, v);
    });
    if (!g.HasEdge(i, j)) builder.AddEdge(i, j);  // or add
    const Graph neighbor = builder.Build();

    const TriangleSensitivityProfile profile_g(g);
    const TriangleSensitivityProfile profile_n(neighbor);
    for (double beta : {0.0167, 0.1, 0.5}) {
      const double ss_g = profile_g.SmoothSensitivity(beta);
      const double ss_n = profile_n.SmoothSensitivity(beta);
      EXPECT_LE(ss_g, std::exp(beta) * ss_n + 1e-9) << "beta " << beta;
      EXPECT_LE(ss_n, std::exp(beta) * ss_g + 1e-9) << "beta " << beta;
    }
  }
}

// ---------------------------------------------------------------------------
// Private triangle count.
// ---------------------------------------------------------------------------

TEST(PrivateTriangleCountTest, CentersOnTrueCount) {
  Rng graph_rng(13);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 8, graph_rng);
  const double truth = testing::ExactFeatures(g).triangles;
  Rng rng(17);
  double sum = 0.0;
  const int runs = 400;
  for (int r = 0; r < runs; ++r) {
    sum += PrivateTriangleCount(g, 1.0, 0.01, rng).value;
  }
  const PrivateTriangleResult one = PrivateTriangleCount(g, 1.0, 0.01, rng);
  const double noise_sd = 2.0 * one.smooth_sensitivity / 1.0 * std::sqrt(2.0);
  EXPECT_NEAR(sum / runs, truth, 5 * noise_sd / std::sqrt(double(runs)));
}

TEST(PrivateTriangleCountTest, BetaMatchesTheorem) {
  Rng rng(19);
  const Graph g = testing::CompleteGraph(16);
  const auto result = PrivateTriangleCount(g, 0.1, 0.01, rng);
  EXPECT_NEAR(result.beta, 0.1 / (2 * std::log(2.0 / 0.01)), 1e-12);
  EXPECT_EQ(result.exact, 560.0);  // C(16,3)
}

TEST(PrivateTriangleCountTest, MoreNoiseAtSmallerEpsilon) {
  Rng rng(23);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 7, rng);
  double spread_small = 0.0, spread_large = 0.0;
  const double truth = testing::ExactFeatures(g).triangles;
  for (int r = 0; r < 50; ++r) {
    spread_small +=
        std::fabs(PrivateTriangleCount(g, 0.05, 0.01, rng).value - truth);
    spread_large +=
        std::fabs(PrivateTriangleCount(g, 5.0, 0.01, rng).value - truth);
  }
  EXPECT_GT(spread_small, 3 * spread_large);
}

}  // namespace
}  // namespace dpkron
