#include "src/skg/moments.h"

#include <cmath>
#include <string>
#include <tuple>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/estimation/features.h"
#include "src/graph/graph.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

// ---------------------------------------------------------------------------
// Closed form (Eq. 1) vs brute-force summation over the dense Kronecker
// power — a direct check of every term in the formulas.
// ---------------------------------------------------------------------------

using ThetaK = std::tuple<double, double, double, uint32_t>;

class MomentsBruteForceTest : public ::testing::TestWithParam<ThetaK> {};

TEST_P(MomentsBruteForceTest, ClosedFormMatchesBruteForce) {
  const auto [a, b, c, k] = GetParam();
  const Initiator2 theta{a, b, c};
  const SkgMoments closed = ExpectedMoments(theta, k);
  const SkgMoments brute = ExpectedMomentsBruteForce(theta, k);
  const double tol = 1e-9;
  EXPECT_NEAR(closed.edges, brute.edges, tol * (1 + brute.edges));
  EXPECT_NEAR(closed.hairpins, brute.hairpins, tol * (1 + brute.hairpins));
  EXPECT_NEAR(closed.triangles, brute.triangles, tol * (1 + brute.triangles));
  EXPECT_NEAR(closed.tripins, brute.tripins, tol * (1 + brute.tripins));
}

INSTANTIATE_TEST_SUITE_P(
    ThetaSweep, MomentsBruteForceTest,
    ::testing::Values(
        ThetaK{0.99, 0.45, 0.25, 1}, ThetaK{0.99, 0.45, 0.25, 2},
        ThetaK{0.99, 0.45, 0.25, 3}, ThetaK{0.99, 0.45, 0.25, 4},
        ThetaK{0.99, 0.45, 0.25, 5}, ThetaK{1.0, 0.5, 0.0, 4},
        ThetaK{1.0, 1.0, 1.0, 3}, ThetaK{0.0, 0.0, 0.0, 3},
        ThetaK{0.5, 0.5, 0.5, 4}, ThetaK{0.7, 0.1, 0.6, 5},
        ThetaK{1.0, 0.63, 0.0, 6}, ThetaK{0.9, 0.0, 0.2, 4},
        ThetaK{0.0, 1.0, 0.0, 4}, ThetaK{0.3, 0.8, 0.9, 5}));

// ---------------------------------------------------------------------------
// Edge cases with hand-computable values.
// ---------------------------------------------------------------------------

TEST(MomentsTest, AllOnesInitiatorGivesCompleteGraphCounts) {
  // Θ = all ones → G = K_n deterministically (n = 2^k).
  const Initiator2 theta{1.0, 1.0, 1.0};
  for (uint32_t k : {1u, 2u, 3u, 4u}) {
    const double n = std::pow(2.0, k);
    const SkgMoments m = ExpectedMoments(theta, k);
    EXPECT_NEAR(m.edges, n * (n - 1) / 2, 1e-9);
    EXPECT_NEAR(m.hairpins, n * (n - 1) * (n - 2) / 2, 1e-6);
    EXPECT_NEAR(m.triangles, n * (n - 1) * (n - 2) / 6, 1e-6);
    EXPECT_NEAR(m.tripins, n * (n - 1) * (n - 2) * (n - 3) / 6, 1e-6);
  }
}

TEST(MomentsTest, ZeroInitiatorGivesZeroCounts) {
  const SkgMoments m = ExpectedMoments({0.0, 0.0, 0.0}, 5);
  EXPECT_DOUBLE_EQ(m.edges, 0.0);
  EXPECT_DOUBLE_EQ(m.hairpins, 0.0);
  EXPECT_DOUBLE_EQ(m.triangles, 0.0);
  EXPECT_DOUBLE_EQ(m.tripins, 0.0);
}

TEST(MomentsTest, DiagonalOnlyInitiatorHasNoOffDiagonalEdges) {
  // b = 0 and a,c < 1: at k=1, only the (0,0)/(1,1) self-pairs carry
  // probability, which the undirected convention discards — E[E] counts
  // only u≠v. At k=1: E = ½((a+c)^1 − (a+c)^1)... actually for any k,
  // with b=0 off-diagonal pairs u≠v keep probability iff digits differ
  // somewhere -> P_uv = 0. So all expectations vanish except... E should
  // be 0.
  const SkgMoments m = ExpectedMoments({0.9, 0.0, 0.4}, 4);
  EXPECT_NEAR(m.edges, 0.0, 1e-12);
  EXPECT_NEAR(m.triangles, 0.0, 1e-12);
}

TEST(MomentsTest, MonotoneInEachParameter) {
  // Raising any initiator entry cannot decrease any expected count.
  const uint32_t k = 6;
  const Initiator2 base{0.7, 0.4, 0.2};
  const SkgMoments m0 = ExpectedMoments(base, k);
  for (int axis = 0; axis < 3; ++axis) {
    Initiator2 up = base;
    (axis == 0 ? up.a : axis == 1 ? up.b : up.c) += 0.05;
    const SkgMoments m1 = ExpectedMoments(up, k);
    EXPECT_GE(m1.edges, m0.edges - 1e-12);
    EXPECT_GE(m1.hairpins, m0.hairpins - 1e-12);
    EXPECT_GE(m1.triangles, m0.triangles - 1e-12);
    EXPECT_GE(m1.tripins, m0.tripins - 1e-12);
  }
}

TEST(MomentsTest, PaperSyntheticParametersScale) {
  // Θ = [.99 .45; .45 .25], k = 14: edge expectation should land in the
  // ballpark the paper's synthetic graph exhibits (~10^5 edges, 2^14
  // nodes). Regression guard around the exact formula value.
  const SkgMoments m = ExpectedMoments({0.99, 0.45, 0.25}, 14);
  EXPECT_GT(m.edges, 1e4);
  EXPECT_LT(m.edges, 1e5);
  EXPECT_GT(m.hairpins, m.edges);      // wedges exceed edges at this density
  EXPECT_GT(m.tripins, m.triangles);   // 3-stars dominate triangles
}

// ---------------------------------------------------------------------------
// Monte-Carlo: the exact sampler's empirical means must match Eq. (1).
// This simultaneously validates the sampler's pair convention and every
// moment formula at realistic parameters.
// ---------------------------------------------------------------------------

class MomentsMonteCarloTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(MomentsMonteCarloTest, SamplerMeansMatchClosedForm) {
  const auto [a, b, c] = GetParam();
  const Initiator2 theta{a, b, c};
  const uint32_t k = 6;  // 64 nodes
  const uint32_t runs = 400;
  Rng rng(0xC0FFEE ^ uint64_t(a * 1000) ^ uint64_t(b * 100000));

  double edges = 0.0, hairpins = 0.0, triangles = 0.0, tripins = 0.0;
  for (uint32_t r = 0; r < runs; ++r) {
    const Graph g = SampleSkg(theta, k, rng);
    const GraphFeatures f = testing::ExactFeatures(g);
    edges += f.edges;
    hairpins += f.hairpins;
    triangles += f.triangles;
    tripins += f.tripins;
  }
  edges /= runs;
  hairpins /= runs;
  triangles /= runs;
  tripins /= runs;

  const SkgMoments m = ExpectedMoments(theta, k);
  // 5-sigma-ish bands: Monte-Carlo SD of these counts at k=6 is modest;
  // use relative tolerances wide enough to be deterministic-safe.
  EXPECT_NEAR(edges, m.edges, 0.05 * m.edges + 2.0);
  EXPECT_NEAR(hairpins, m.hairpins, 0.10 * m.hairpins + 10.0);
  EXPECT_NEAR(triangles, m.triangles, 0.15 * m.triangles + 5.0);
  EXPECT_NEAR(tripins, m.tripins, 0.15 * m.tripins + 20.0);
}

INSTANTIATE_TEST_SUITE_P(
    ThetaSweep, MomentsMonteCarloTest,
    ::testing::Values(std::tuple{0.99, 0.45, 0.25},
                      std::tuple{0.9, 0.6, 0.1},
                      std::tuple{1.0, 0.63, 0.0},
                      std::tuple{0.8, 0.5, 0.5}));

}  // namespace
}  // namespace dpkron
