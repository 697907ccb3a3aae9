#include "src/skg/sampler.h"

#include <cmath>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/skg/kronecker.h"
#include "src/skg/moments.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

TEST(SamplerTest, NodeCountIsTwoToK) {
  Rng rng(1);
  for (uint32_t k : {1u, 3u, 8u}) {
    const Graph g = SampleSkg({0.9, 0.5, 0.2}, k, rng);
    EXPECT_EQ(g.NumNodes(), uint32_t{1} << k);
  }
}

TEST(SamplerTest, AllOnesGivesCompleteGraph) {
  Rng rng(2);
  const Graph g = SampleSkg({1.0, 1.0, 1.0}, 4, rng);
  EXPECT_EQ(g.NumEdges(), 16u * 15 / 2);
}

TEST(SamplerTest, AllZerosGivesEmptyGraph) {
  Rng rng(3);
  const Graph g = SampleSkg({0.0, 0.0, 0.0}, 6, rng);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(SamplerTest, DeterministicGivenSeed) {
  Rng a(42), b(42);
  const Graph ga = SampleSkg({0.9, 0.5, 0.2}, 7, a);
  const Graph gb = SampleSkg({0.9, 0.5, 0.2}, 7, b);
  EXPECT_EQ(ga.Edges(), gb.Edges());
}

TEST(SamplerTest, EmpiricalEdgeCountMatchesExpectation) {
  const Initiator2 theta{0.9, 0.5, 0.3};
  const uint32_t k = 7;
  Rng rng(5);
  double total = 0.0;
  const int runs = 200;
  for (int r = 0; r < runs; ++r) {
    total += double(SampleSkg(theta, k, rng).NumEdges());
  }
  const double mean = total / runs;
  const double expected = ExpectedEdges(theta, k);
  EXPECT_NEAR(mean, expected, 0.04 * expected);
}

TEST(SamplerTest, PerPairFrequencyMatchesProbability) {
  // Single fixed pair sampled many times at k=3.
  const Initiator2 theta{0.9, 0.6, 0.3};
  const EdgeProbability2 prob(theta, 3);
  Rng rng(7);
  const uint64_t u = 2, v = 5;
  int hits = 0;
  const int runs = 4000;
  for (int r = 0; r < runs; ++r) {
    hits += SampleSkg(theta, 3, rng).HasEdge(u, v);
  }
  EXPECT_NEAR(hits / double(runs), prob(u, v), 0.03);
}

TEST(BallDropTest, EdgeCountTracksExpectation) {
  const Initiator2 theta{0.99, 0.45, 0.25};
  const uint32_t k = 10;
  SkgSampleOptions options;
  options.method = SkgSampleMethod::kBallDrop;
  Rng rng(11);
  double total = 0.0;
  const int runs = 30;
  for (int r = 0; r < runs; ++r) {
    total += double(SampleSkg(theta, k, rng, options).NumEdges());
  }
  const double mean = total / runs;
  const double expected = ExpectedEdges(theta, k);
  EXPECT_NEAR(mean, expected, 0.05 * expected);
}

TEST(BallDropTest, AggregateStatisticsCloseToExactSampler) {
  // The fast generator is approximate per-pair, but wedges/triangles —
  // what the estimators consume — must track the exact sampler closely.
  const Initiator2 theta{0.95, 0.55, 0.25};
  const uint32_t k = 9;
  Rng rng_exact(13), rng_fast(17);
  SkgSampleOptions fast;
  fast.method = SkgSampleMethod::kBallDrop;

  double exact_wedges = 0, fast_wedges = 0;
  double exact_tri = 0, fast_tri = 0;
  const int runs = 20;
  for (int r = 0; r < runs; ++r) {
    const Graph ge = SampleSkg(theta, k, rng_exact);
    const Graph gf = SampleSkg(theta, k, rng_fast, fast);
    const GraphFeatures fe = testing::ExactFeatures(ge);
    const GraphFeatures ff = testing::ExactFeatures(gf);
    exact_wedges += fe.hairpins;
    fast_wedges += ff.hairpins;
    exact_tri += fe.triangles;
    fast_tri += ff.triangles;
  }
  EXPECT_NEAR(fast_wedges / exact_wedges, 1.0, 0.15);
  EXPECT_NEAR(fast_tri / exact_tri, 1.0, 0.30);
}

TEST(BallDropTest, HandlesDenseInitiator) {
  SkgSampleOptions options;
  options.method = SkgSampleMethod::kBallDrop;
  Rng rng(19);
  const Graph g = SampleSkg({1.0, 1.0, 1.0}, 4, rng, options);
  // Target ≈ all 120 pairs; duplicate-retry must not spin forever.
  EXPECT_GT(g.NumEdges(), 100u);
  EXPECT_LE(g.NumEdges(), 120u);
}

TEST(EdgeSkipTest, NodeCountAndSimpleGraphInvariants) {
  SkgSampleOptions options;
  options.method = SkgSampleMethod::kEdgeSkip;
  Rng rng(41);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 10, rng, options);
  EXPECT_EQ(g.NumNodes(), 1024u);
  for (const auto& [u, v] : g.Edges()) {
    EXPECT_LT(u, v);  // canonical, loop-free
  }
}

TEST(EdgeSkipTest, DeterministicGivenSeed) {
  SkgSampleOptions options;
  options.method = SkgSampleMethod::kEdgeSkip;
  Rng a(42), b(42);
  const Graph ga = SampleSkg({0.9, 0.5, 0.2}, 11, a, options);
  const Graph gb = SampleSkg({0.9, 0.5, 0.2}, 11, b, options);
  EXPECT_EQ(ga.Edges(), gb.Edges());
}

TEST(EdgeSkipTest, AllZerosGivesEmptyGraph) {
  SkgSampleOptions options;
  options.method = SkgSampleMethod::kEdgeSkip;
  Rng rng(43);
  EXPECT_EQ(SampleSkg({0.0, 0.0, 0.0}, 8, rng, options).NumEdges(), 0u);
}

TEST(EdgeSkipTest, ZeroProbabilityRegionsStayEmpty) {
  // b = c = 0: only the all-zero-digit quadrant chain has mass, and the
  // single cell it leads to is the diagonal (0,0) — dropped as a loop.
  SkgSampleOptions options;
  options.method = SkgSampleMethod::kEdgeSkip;
  Rng rng(47);
  EXPECT_EQ(SampleSkg({1.0, 0.0, 0.0}, 10, rng, options).NumEdges(), 0u);
}

TEST(EdgeSkipTest, HandlesDenseInitiator) {
  SkgSampleOptions options;
  options.method = SkgSampleMethod::kEdgeSkip;
  Rng rng(53);
  const Graph g = SampleSkg({1.0, 1.0, 1.0}, 4, rng, options);
  // Unlike BallDrop, EdgeSkip does not retry duplicate placements — the
  // realized graph is the *support* of the multinomial balls, so a dense
  // corner collapses collisions instead of spinning on them. ~120 balls
  // over 240 ordered cells leave ≈ 1 − e^(−0.94) ≈ 61% of the 120 pairs
  // occupied; anything in a generous band around that is healthy.
  EXPECT_GT(g.NumEdges(), 50u);
  EXPECT_LE(g.NumEdges(), 120u);
}

TEST(EdgeSkipTest, EdgeCountMatchesBallDropExpectation) {
  // kEdgeSkip reorganizes exactly the ball-dropping computation, so its
  // mean edge count at k = 10 must sit within statistical tolerance of
  // both the closed-form expectation and the ball-drop sampler.
  const Initiator2 theta{0.99, 0.45, 0.25};
  const uint32_t k = 10;
  SkgSampleOptions edge_skip;
  edge_skip.method = SkgSampleMethod::kEdgeSkip;
  SkgSampleOptions ball_drop;
  ball_drop.method = SkgSampleMethod::kBallDrop;
  Rng rng_skip(59), rng_drop(61);
  double skip_total = 0.0, drop_total = 0.0;
  const int runs = 30;
  for (int r = 0; r < runs; ++r) {
    skip_total += double(SampleSkg(theta, k, rng_skip, edge_skip).NumEdges());
    drop_total += double(SampleSkg(theta, k, rng_drop, ball_drop).NumEdges());
  }
  const double expected = ExpectedEdges(theta, k);
  EXPECT_NEAR(skip_total / runs, expected, 0.05 * expected);
  EXPECT_NEAR(skip_total / drop_total, 1.0, 0.05);
}

TEST(EdgeSkipTest, AggregateStatisticsCloseToExactSampler) {
  const Initiator2 theta{0.95, 0.55, 0.25};
  const uint32_t k = 9;
  Rng rng_exact(67), rng_skip(71);
  SkgSampleOptions skip;
  skip.method = SkgSampleMethod::kEdgeSkip;

  double exact_wedges = 0, skip_wedges = 0;
  double exact_tri = 0, skip_tri = 0;
  const int runs = 20;
  for (int r = 0; r < runs; ++r) {
    const Graph ge = SampleSkg(theta, k, rng_exact);
    const Graph gs = SampleSkg(theta, k, rng_skip, skip);
    const GraphFeatures fe = testing::ExactFeatures(ge);
    const GraphFeatures fs = testing::ExactFeatures(gs);
    exact_wedges += fe.hairpins;
    skip_wedges += fs.hairpins;
    exact_tri += fe.triangles;
    skip_tri += fs.triangles;
  }
  EXPECT_NEAR(skip_wedges / exact_wedges, 1.0, 0.15);
  EXPECT_NEAR(skip_tri / exact_tri, 1.0, 0.30);
}

TEST(EdgeSkipTest, ScalesToLargeK) {
  // k = 16 (65536 nodes): far beyond the exact sampler's reach; checks
  // the multinomial recursion survives a realistically deep descent and
  // lands near the expected edge count in one realization.
  const Initiator2 theta{0.9, 0.5, 0.2};
  SkgSampleOptions options;
  options.method = SkgSampleMethod::kEdgeSkip;
  Rng rng(73);
  const Graph g = SampleSkg(theta, 16, rng, options);
  EXPECT_EQ(g.NumNodes(), uint32_t{1} << 16);
  const double expected = ExpectedEdges(theta, 16);
  EXPECT_NEAR(double(g.NumEdges()), expected, 0.1 * expected);
}

TEST(SampleSkgNTest, MatchesSymmetricConvention) {
  // For a symmetric initiator the general sampler must produce the same
  // edge-count law as the 2x2 fast path.
  const Initiator2 theta{0.9, 0.5, 0.3};
  const InitiatorN general = InitiatorN::From2x2(theta);
  const uint32_t k = 5;
  Rng rng(23);
  double total = 0.0;
  const int runs = 300;
  for (int r = 0; r < runs; ++r) {
    total += double(SampleSkgN(general, k, rng).NumEdges());
  }
  EXPECT_NEAR(total / runs, ExpectedEdges(theta, k),
              0.06 * ExpectedEdges(theta, k));
}

TEST(SampleSkgNTest, AsymmetricInitiatorLowerTriangleLaw) {
  // Directed [0 1; 0 0] initiator: P_uv = 1 iff every digit pair is
  // (0, 1) — only (u, v) = (0, 2^k − 1) as an ordered pair. The
  // symmetrization keeps A*_uv for u > v, i.e. probability comes from
  // EdgeProbabilityN(theta, k, u, v) with u > v: P(2^k−1, 0) = 0 under
  // this initiator, so the realized graph is empty.
  const auto theta = InitiatorN::Create(2, {0.0, 1.0, 0.0, 0.0}).value();
  Rng rng(29);
  const Graph g = SampleSkgN(theta, 4, rng);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(SampleSkgNTest, TransposedAsymmetricInitiatorRealizesEdge) {
  // [0 0; 1 0]: P(u, v) = 1 iff digits of (u, v) are all (1, 0), i.e.
  // u = 2^k − 1, v = 0, which lies in the kept lower triangle.
  const auto theta = InitiatorN::Create(2, {0.0, 0.0, 1.0, 0.0}).value();
  Rng rng(31);
  const Graph g = SampleSkgN(theta, 4, rng);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(15, 0));
}

}  // namespace
}  // namespace dpkron
