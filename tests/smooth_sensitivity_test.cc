#include "src/dp/smooth_sensitivity.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/datasets/affiliation.h"
#include "src/graph/graph_builder.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::CommonNeighbors;
using testing::CompleteGraph;
using testing::CycleGraph;
using testing::EdgeList;
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
  for (uint32_t s = 0; s <= 2; ++s) {
    EXPECT_EQ(profile.LocalSensitivityAtDistance(s), BruteLsAtDistance(g, s))
        << "seed " << seed << " s " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ProfileBruteForceTest,
                         ::testing::Range(0u, 25u));

// ---------------------------------------------------------------------------
// Oracles for the profile's two walks: a BFS-distance far-pair search and
// the collect-then-sort frontier the library computed before class 1 was
// folded into a max-b-per-a array.
// ---------------------------------------------------------------------------

// Max d_i + d_j over pairs at BFS distance > 2, or −1 if there is none.
int64_t FarPairDegreeSumByBfs(const Graph& g) {
  const uint32_t n = g.NumNodes();
  constexpr uint32_t kUnreached = ~0u;
  std::vector<uint32_t> distance(n);
  std::vector<Graph::NodeId> queue;
  int64_t best = -1;
  for (Graph::NodeId s = 0; s < n; ++s) {
    std::fill(distance.begin(), distance.end(), kUnreached);
    distance[s] = 0;
    queue.assign(1, s);
    for (size_t head = 0; head < queue.size(); ++head) {
      const Graph::NodeId u = queue[head];
      for (Graph::NodeId v : g.Neighbors(u)) {
        if (distance[v] == kUnreached) {
          distance[v] = distance[u] + 1;
          queue.push_back(v);
        }
      }
    }
    for (Graph::NodeId t = s + 1; t < n; ++t) {
      if (distance[t] > 2) {
        best = std::max<int64_t>(best, int64_t{g.Degree(s)} + g.Degree(t));
      }
    }
  }
  return best;
}

// The Pareto frontier of `candidates`: sorted by a desc then b desc and
// reduced to strictly rising b.
std::vector<std::pair<uint64_t, uint64_t>> ParetoFrontier(
    std::vector<std::pair<uint64_t, uint64_t>> candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& x, const auto& y) {
              return x.first != y.first ? x.first > y.first
                                        : x.second > y.second;
            });
  std::vector<std::pair<uint64_t, uint64_t>> frontier;
  for (const auto& [a, b] : candidates) {
    if (frontier.empty() || b > frontier.back().second) {
      frontier.emplace_back(a, b);
    }
  }
  return frontier;
}

// Every class-1 pair's (a, b) from a stamped counter with HasEdge for
// adjacency, every edge's (0, d_u + d_v − 2) and the BFS far candidate,
// reduced to their Pareto frontier. Each source's pairs are reduced to
// their own frontier first (the frontier of a union is the frontier of
// the union of frontiers), which keeps a star's quadratic pair count
// out of memory.
std::vector<std::pair<uint64_t, uint64_t>> FrontierByCollectAndSort(
    const Graph& g) {
  const uint32_t n = g.NumNodes();
  std::vector<std::pair<uint64_t, uint64_t>> candidates;
  if (n < 2) return candidates;
  std::vector<uint32_t> common(n, 0), stamp(n, 0);
  std::vector<Graph::NodeId> touched;
  std::vector<std::pair<uint64_t, uint64_t>> source_pairs;
  for (Graph::NodeId i = 0; i < n; ++i) {
    touched.clear();
    for (Graph::NodeId w : g.Neighbors(i)) {
      for (Graph::NodeId j : g.Neighbors(w)) {
        if (j <= i) continue;  // each unordered pair once
        if (stamp[j] != i + 1) {
          stamp[j] = i + 1;
          common[j] = 0;
          touched.push_back(j);
        }
        ++common[j];
      }
    }
    source_pairs.clear();
    for (Graph::NodeId j : touched) {
      const uint64_t a = common[j];
      const uint64_t adjacent = g.HasEdge(i, j) ? 1 : 0;
      source_pairs.emplace_back(
          a, uint64_t{g.Degree(i)} + g.Degree(j) - 2 * a - 2 * adjacent);
    }
    for (const auto& point : ParetoFrontier(source_pairs)) {
      candidates.push_back(point);
    }
  }
  g.ForEachEdge([&](Graph::NodeId u, Graph::NodeId v) {
    candidates.emplace_back(0, uint64_t{g.Degree(u)} + g.Degree(v) - 2);
  });
  const int64_t far = FarPairDegreeSumByBfs(g);
  if (far >= 0) candidates.emplace_back(0, static_cast<uint64_t>(far));
  return ParetoFrontier(std::move(candidates));
}

TEST(ProfileOracleTest, FoldedFrontierMatchesCollectAndSortAtAnyWidth) {
  Rng rng(19);
  std::vector<std::pair<std::string, Graph>> graphs;
  for (uint32_t k = 8; k <= 12; ++k) {
    graphs.emplace_back("skg k=" + std::to_string(k),
                        SampleSkg({0.9, 0.5, 0.3}, k, rng));
  }
  AffiliationOptions options;
  options.num_authors = 512;
  options.num_papers = 320;
  graphs.emplace_back("affiliation", AffiliationGraph(options, rng));
  graphs.emplace_back("star", StarGraph(300));
  graphs.emplace_back("complete", CompleteGraph(40));
  graphs.emplace_back("empty", MakeGraph(30, {}));
  // The shapes the seed-and-clear walk must get right. A 5,000-leaf
  // star: every leaf clears, at equality (its staircase (1, 0) is the
  // seed floor), and only the center is walked.
  graphs.emplace_back("star 5000", StarGraph(5001));
  {
    // K_{2,300}: leaf pairs (2, 0) stay open against the hubs' (300, 0).
    EdgeList edges;
    for (uint32_t leaf = 2; leaf < 302; ++leaf) {
      edges.emplace_back(0u, leaf);
      edges.emplace_back(1u, leaf);
    }
    graphs.emplace_back("K_{2,300}", MakeGraph(302, edges));
  }
  {
    // A hub whose 200 leaves each have one private neighbour: the
    // private neighbours clear against the hub's seed pairs (1, 199).
    constexpr uint32_t kLeaves = 200;
    EdgeList edges;
    for (uint32_t leaf = 1; leaf <= kLeaves; ++leaf) {
      edges.emplace_back(0u, leaf);
      edges.emplace_back(leaf, leaf + kLeaves);
    }
    graphs.emplace_back("hub with private neighbours",
                        MakeGraph(2 * kLeaves + 1, edges));
  }
  {
    // Fewer nodes than the seed count: a wheel of 13.
    EdgeList edges;
    for (uint32_t rim = 1; rim <= 12; ++rim) {
      edges.emplace_back(0u, rim);
      edges.emplace_back(rim, rim % 12 + 1);
    }
    graphs.emplace_back("wheel 13", MakeGraph(13, edges));
  }
  {
    // A broom: hub 0 with 60 leaves and a handle 0–61–62. The seeds are
    // the hub and the handle's middle (their walks read the graph's
    // adjacency size), and the hub's pair (1, 60) with the handle's end
    // makes the end's bound d + D − 2a = 1 + 61 − 2 equal the seed floor
    // at its only a, so the end clears at equality.
    EdgeList edges;
    for (uint32_t leaf = 1; leaf <= 60; ++leaf) edges.emplace_back(0u, leaf);
    edges.emplace_back(0u, 61u);
    edges.emplace_back(61u, 62u);
    graphs.emplace_back("broom", MakeGraph(63, edges));
  }
  {
    // 34 hubs, each with 40 private leaves, share three centers: the hub
    // pairs (3, 80) seed a floor that clears the degree-2 joint v, yet
    // the non-seed nodes i and j (41 leaves and v each) stay open, and
    // their pair (1, 82), counted only through v, is the largest b of
    // any pair with a common neighbour.
    constexpr uint32_t kHubs = 34, kHubLeaves = 40, kSideLeaves = 41;
    EdgeList edges;
    uint32_t next = kHubs + 3;  // 0..33 hubs, 34..36 centers
    for (uint32_t hub = 0; hub < kHubs; ++hub) {
      for (uint32_t center = kHubs; center < kHubs + 3; ++center) {
        edges.emplace_back(hub, center);
      }
      for (uint32_t leaf = 0; leaf < kHubLeaves; ++leaf) {
        edges.emplace_back(hub, next++);
      }
    }
    const uint32_t i = next++, j = next++, v = next++;
    edges.emplace_back(i, v);
    edges.emplace_back(j, v);
    for (uint32_t side : {i, j}) {
      for (uint32_t leaf = 0; leaf < kSideLeaves; ++leaf) {
        edges.emplace_back(side, next++);
      }
    }
    graphs.emplace_back("open pair through a cleared joint",
                        MakeGraph(next, edges));
  }
  {
    // K_40 seeds a floor of (38, 0) only. Beside it, u (degree 1) hangs
    // off w, whose other neighbour x has 19 leaves: the pair (u, x) is
    // (1, 19), so u's bound must use the partner's degree D(u) = 20, not
    // its own, or u clears and (1, 19) is lost.
    EdgeList edges;
    for (uint32_t p = 0; p < 40; ++p) {
      for (uint32_t q = p + 1; q < 40; ++q) edges.emplace_back(p, q);
    }
    const uint32_t x = 40, w = 41, u = 42;
    edges.emplace_back(x, w);
    edges.emplace_back(w, u);
    for (uint32_t leaf = 43; leaf < 62; ++leaf) edges.emplace_back(x, leaf);
    graphs.emplace_back("low-degree node beside a high-degree partner",
                        MakeGraph(62, edges));
  }
  for (const auto& [name, g] : graphs) {
    const auto expected = FrontierByCollectAndSort(g);
    for (int threads : {1, 2, 8}) {
      testing::ScopedThreads width(threads);
      EXPECT_EQ(TriangleSensitivityProfile(g).frontier(), expected)
          << name << " at " << threads << " threads";
    }
  }
}

// The frontier's a = 0 entry must be max(best edge candidate, exact far
// sum) wherever no a > 0 entry covers it — with no budget, so also past
// the 50,000 pair inspections the best-first heap search gave up at.
void ExpectExactZeroEntry(const Graph& g, const std::string& name) {
  int64_t expected = FarPairDegreeSumByBfs(g);
  g.ForEachEdge([&](Graph::NodeId u, Graph::NodeId v) {
    expected = std::max<int64_t>(expected,
                                 int64_t{g.Degree(u)} + g.Degree(v) - 2);
  });
  const TriangleSensitivityProfile profile(g);
  const auto& frontier = profile.frontier();
  ASSERT_FALSE(frontier.empty()) << name;
  int64_t covered = -1;  // largest b of an a > 0 entry
  for (const auto& [a, b] : frontier) {
    if (a > 0) covered = std::max<int64_t>(covered, int64_t(b));
  }
  if (expected > covered) {
    EXPECT_EQ(frontier.back(),
              std::make_pair(uint64_t{0}, static_cast<uint64_t>(expected)))
        << name;
  } else {
    EXPECT_NE(frontier.back().first, 0u) << name;
  }
}

TEST(SmoothSensitivityTest, FarPairSearchIsExactWithoutBudget) {
  // Diameter 2: no far pair at all, ~80k near pairs.
  ExpectExactZeroEntry(StarGraph(400), "star 400");

  // K_400 with a 3-node pendant path on four core nodes: ~80k core pairs
  // outrank every far pair (a path end against another core node).
  {
    EdgeList edges;
    for (uint32_t u = 0; u < 400; ++u) {
      for (uint32_t v = u + 1; v < 400; ++v) edges.emplace_back(u, v);
    }
    uint32_t next = 400;
    for (uint32_t core : {0u, 1u, 2u, 3u}) {
      edges.emplace_back(core, next);
      edges.emplace_back(next, next + 1);
      edges.emplace_back(next + 1, next + 2);
      next += 3;
    }
    ExpectExactZeroEntry(MakeGraph(next, edges), "K_400 + pendant paths");
  }

  // 320 hubs over 400 shared leaves, beside a 321-leaf star: the 51,040
  // hub pairs sit at distance 2 with the largest sums, and the far pair
  // (a hub, the star's center) beats every edge, so it IS the a = 0 entry.
  {
    constexpr uint32_t kHubs = 320, kLeaves = 400;
    EdgeList edges;
    for (uint32_t h = 0; h < kHubs; ++h) {
      for (uint32_t l = 0; l < kLeaves; ++l) edges.emplace_back(h, kHubs + l);
    }
    const uint32_t center = kHubs + kLeaves;
    for (uint32_t l = 1; l <= kHubs + 1; ++l) {
      edges.emplace_back(center, center + l);
    }
    const Graph g = MakeGraph(center + kHubs + 2, edges);
    EXPECT_EQ(FarPairDegreeSumByBfs(g), int64_t{kLeaves + kHubs + 1});
    ExpectExactZeroEntry(g, "hubs over shared leaves + star");
  }

  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t n = 2 + static_cast<uint32_t>(rng.NextBounded(59));
    const double p = rng.NextDouble() * 0.3;
    GraphBuilder builder(n);
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        if (rng.NextBernoulli(p)) builder.AddEdge(i, j);
      }
    }
    ExpectExactZeroEntry(builder.Build(), "random trial " +
                                              std::to_string(trial));
  }
}

// ---------------------------------------------------------------------------
// Smooth sensitivity.
// ---------------------------------------------------------------------------

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
