#include "src/estimation/kronmom_n.h"

#include <cmath>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/skg/moments.h"
#include "src/skg/moments_n.h"

namespace dpkron {
namespace {

TEST(ChooseOrderNTest, Powers) {
  EXPECT_EQ(ChooseOrderN(8, 2), 3u);
  EXPECT_EQ(ChooseOrderN(9, 2), 4u);
  EXPECT_EQ(ChooseOrderN(9, 3), 2u);
  EXPECT_EQ(ChooseOrderN(5242, 3), 8u);  // 3^8 = 6561
}

TEST(MomentObjectiveNTest, ZeroAtTruth) {
  const auto theta = InitiatorN::Create(3, {0.9, 0.4, 0.2,  //
                                            0.4, 0.6, 0.3,  //
                                            0.2, 0.3, 0.5})
                         .value();
  const uint32_t k = 6;
  const GraphFeatures observed = FromMoments(ExpectedMomentsN(theta, k));
  // Upper triangle of theta in row-major (i <= j) order.
  const std::vector<double> upper = {0.9, 0.4, 0.2, 0.6, 0.3, 0.5};
  EXPECT_NEAR(MomentObjectiveN(upper, 3, k, observed), 0.0, 1e-10);
}

TEST(MomentObjectiveNTest, MatchesTwoByTwoObjective) {
  const Initiator2 theta{0.9, 0.5, 0.2};
  const uint32_t k = 8;
  const GraphFeatures observed = FromMoments(ExpectedMoments(theta, k));
  const Initiator2 off{0.85, 0.55, 0.25};
  const double via_n =
      MomentObjectiveN({off.a, off.b, off.c}, 2, k, observed);
  const double via_2 = MomentObjective(off, k, observed);
  EXPECT_NEAR(via_n, via_2, 1e-9 * (1 + via_2));
}

TEST(FitKronMomNTest, RecoversTwoByTwoTruth) {
  const Initiator2 truth{0.99, 0.45, 0.25};
  const uint32_t k = 12;
  const GraphFeatures observed = FromMoments(ExpectedMoments(truth, k));
  Rng rng(1);
  const KronMomNResult fit = FitKronMomN(observed, 2, k, rng);
  EXPECT_LT(fit.objective, 1e-6);
  // The fitted matrix reproduces the observed moments (parameters may be
  // permuted: relabeling rows/cols is an SKG symmetry).
  const auto fitted = InitiatorN::Create(2, fit.entries).value();
  const SkgMoments m = ExpectedMomentsN(fitted, k);
  EXPECT_NEAR(m.edges, observed.edges, 0.01 * observed.edges);
  EXPECT_NEAR(m.triangles, observed.triangles, 0.05 * observed.triangles);
}

TEST(FitKronMomNTest, ThreeByThreeMomentFit) {
  // Identifiability of all 6 parameters from 4 moments is not given; the
  // fit must instead reproduce the observed moments accurately.
  const auto truth = InitiatorN::Create(3, {0.95, 0.5, 0.2,  //
                                            0.5, 0.6, 0.3,   //
                                            0.2, 0.3, 0.4})
                         .value();
  const uint32_t k = 8;
  const GraphFeatures observed = FromMoments(ExpectedMomentsN(truth, k));
  Rng rng(2);
  const KronMomNResult fit = FitKronMomN(observed, 3, k, rng);
  EXPECT_LT(fit.objective, 1e-5);
  const auto fitted = InitiatorN::Create(3, fit.entries).value();
  const SkgMoments m = ExpectedMomentsN(fitted, k);
  EXPECT_NEAR(m.edges, observed.edges, 0.02 * observed.edges);
  EXPECT_NEAR(m.hairpins, observed.hairpins, 0.05 * observed.hairpins);
  EXPECT_NEAR(m.triangles, observed.triangles,
              0.10 * observed.triangles + 1);
}

TEST(FitKronMomNTest, DeterministicGivenSeed) {
  const GraphFeatures observed =
      FromMoments(ExpectedMoments({0.9, 0.5, 0.2}, 10));
  Rng rng1(5), rng2(5);
  const auto f1 = FitKronMomN(observed, 2, 10, rng1);
  const auto f2 = FitKronMomN(observed, 2, 10, rng2);
  EXPECT_EQ(f1.entries, f2.entries);
}

}  // namespace
}  // namespace dpkron
