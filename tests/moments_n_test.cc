#include "src/skg/moments_n.h"

#include <tuple>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/estimation/features.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

void ExpectMomentsNear(const SkgMoments& a, const SkgMoments& b, double tol) {
  EXPECT_NEAR(a.edges, b.edges, tol * (1 + b.edges));
  EXPECT_NEAR(a.hairpins, b.hairpins, tol * (1 + b.hairpins));
  EXPECT_NEAR(a.triangles, b.triangles, tol * (1 + b.triangles));
  EXPECT_NEAR(a.tripins, b.tripins, tol * (1 + b.tripins));
}

TEST(MomentsNTest, SpecializesToTwoByTwoFormulas) {
  for (const auto& [a, b, c] :
       std::vector<std::tuple<double, double, double>>{
           {0.99, 0.45, 0.25}, {1.0, 0.63, 0.0}, {0.5, 0.5, 0.5},
           {0.7, 0.1, 0.6}}) {
    const Initiator2 theta2{a, b, c};
    const InitiatorN thetaN = InitiatorN::From2x2(theta2);
    for (uint32_t k : {1u, 3u, 7u, 12u}) {
      ExpectMomentsNear(ExpectedMomentsN(thetaN, k),
                        ExpectedMoments(theta2, k), 1e-11);
    }
  }
}

class MomentsN3BruteForceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(MomentsN3BruteForceTest, MatchesBruteForceOn3x3) {
  const auto [seed, k] = GetParam();
  Rng rng(seed);
  // Random symmetric 3×3 initiator.
  std::vector<double> entries(9);
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = i; j < 3; ++j) {
      const double x = rng.NextDouble();
      entries[i * 3 + j] = x;
      entries[j * 3 + i] = x;
    }
  }
  const auto theta = InitiatorN::Create(3, entries).value();
  ExpectMomentsNear(ExpectedMomentsN(theta, k),
                    ExpectedMomentsBruteForceN(theta, k), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndOrders, MomentsN3BruteForceTest,
    ::testing::Combine(::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

TEST(MomentsNTest, FourByFourAgainstBruteForce) {
  Rng rng(77);
  std::vector<double> entries(16);
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = i; j < 4; ++j) {
      const double x = rng.NextDouble();
      entries[i * 4 + j] = x;
      entries[j * 4 + i] = x;
    }
  }
  const auto theta = InitiatorN::Create(4, entries).value();
  for (uint32_t k : {1u, 2u, 3u}) {
    ExpectMomentsNear(ExpectedMomentsN(theta, k),
                      ExpectedMomentsBruteForceN(theta, k), 1e-9);
  }
}

TEST(MomentsNTest, MonteCarloAgreementOn3x3) {
  // Sample the general exact sampler and compare empirical means.
  const auto theta =
      InitiatorN::Create(3, {0.95, 0.4, 0.2,   //
                             0.4, 0.6, 0.3,    //
                             0.2, 0.3, 0.5})
          .value();
  const uint32_t k = 4;  // 81 nodes
  Rng rng(123);
  double edges = 0, hairpins = 0, triangles = 0, tripins = 0;
  const int runs = 300;
  for (int r = 0; r < runs; ++r) {
    const Graph g = SampleSkgN(theta, k, rng);
    const GraphFeatures f = testing::ExactFeatures(g);
    edges += f.edges;
    hairpins += f.hairpins;
    triangles += f.triangles;
    tripins += f.tripins;
  }
  const SkgMoments m = ExpectedMomentsN(theta, k);
  EXPECT_NEAR(edges / runs, m.edges, 0.05 * m.edges + 2);
  EXPECT_NEAR(hairpins / runs, m.hairpins, 0.10 * m.hairpins + 10);
  EXPECT_NEAR(triangles / runs, m.triangles, 0.15 * m.triangles + 5);
  EXPECT_NEAR(tripins / runs, m.tripins, 0.15 * m.tripins + 20);
}

TEST(MomentsNDeathTest, RejectsAsymmetricInitiator) {
  const auto theta =
      InitiatorN::Create(2, {0.9, 0.4, 0.5, 0.2}).value();
  EXPECT_DEATH(ExpectedMomentsN(theta, 3), "symmetric");
}

}  // namespace
}  // namespace dpkron
