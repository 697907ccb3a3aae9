#include "src/kronfit/kronfit.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/kronfit/likelihood.h"
#include "src/kronfit/permutation.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

TEST(PermutationStateTest, IdentityAndSwaps) {
  PermutationState sigma(4);
  for (uint32_t u = 0; u < 4; ++u) EXPECT_EQ(sigma.Position(u), u);
  sigma.SwapNodes(0, 3);
  EXPECT_EQ(sigma.Position(0), 3u);
  EXPECT_EQ(sigma.Position(3), 0u);
  EXPECT_EQ(sigma.NodeAt(3), 0u);
  EXPECT_EQ(sigma.NodeAt(0), 3u);
  sigma.SwapNodes(0, 3);
  for (uint32_t u = 0; u < 4; ++u) EXPECT_EQ(sigma.Position(u), u);
}

TEST(PermutationStateTest, ExplicitMappingValidated) {
  PermutationState sigma({2, 0, 1});
  EXPECT_EQ(sigma.Position(0), 2u);
  EXPECT_EQ(sigma.NodeAt(2), 0u);
}

TEST(PermutationStateDeathTest, RejectsNonPermutation) {
  EXPECT_DEATH(PermutationState({0, 0, 1}), "not a permutation");
}

TEST(DegreeGuidedInitTest, HighestDegreeGetsLowestPopcount) {
  const Graph g = PadWithIsolatedNodes(testing::StarGraph(5), 8);
  const PermutationState sigma = DegreeGuidedInit(g, 3);
  EXPECT_EQ(sigma.Position(0), 0u);  // center (degree 4) -> position 0
}

// The O(k²) lookup tables must reproduce the direct computation to the
// last bit — EXPECT_EQ on doubles, not EXPECT_NEAR. Sweeps several
// initiators (including the clamped-floor corner) and orders, with
// exhaustive position pairs at small k and a deterministic sample at
// larger k.
TEST(LikelihoodTest, TablePathMatchesDirectBitExactly) {
  const Initiator2 thetas[] = {
      {0.9, 0.5, 0.2}, {0.99, 0.55, 0.35}, {0.5, 0.5, 0.5},
      {1.0, 0.7, 0.0},  // c clamps to kThetaFloor
      {0.3, 0.9, 0.6},  // non-canonical a < c
  };
  for (const Initiator2& theta : thetas) {
    for (uint32_t k : {1u, 2u, 5u, 8u, 14u, 20u}) {
      const KronFitLikelihood model(theta, k);
      const uint32_t n = uint32_t{1} << std::min(k, 6u);
      Rng rng(k * 1000003u);
      for (uint32_t trial = 0; trial < (k <= 6 ? n * n : 2000u); ++trial) {
        uint32_t p, q;
        if (k <= 6) {
          p = trial / n;
          q = trial % n;
        } else {
          p = static_cast<uint32_t>(rng.NextBounded(uint64_t{1} << k));
          q = static_cast<uint32_t>(rng.NextBounded(uint64_t{1} << k));
        }
        ASSERT_EQ(model.EdgeTerm(p, q), model.EdgeTermDirect(p, q))
            << "k=" << k << " p=" << p << " q=" << q;
        const Gradient3 table = model.EdgeGradientTerm(p, q);
        const Gradient3 direct = model.EdgeGradientTermDirect(p, q);
        for (int i = 0; i < 3; ++i) {
          ASSERT_EQ(table[i], direct[i])
              << "component " << i << " k=" << k << " p=" << p << " q=" << q;
        }
      }
    }
  }
}

TEST(LikelihoodTest, EdgeTermValue) {
  const KronFitLikelihood model({0.9, 0.5, 0.2}, 2);
  // P(0,0) = 0.81.
  const double p = 0.81;
  EXPECT_NEAR(model.EdgeTerm(0, 0), std::log(p) + p + p * p / 2, 1e-12);
}

TEST(LikelihoodTest, NoEdgeTermMatchesDirectSummation) {
  // C(Θ) should equal Σ_{u<v} (P_uv + P_uv²/2) over all pairs.
  const Initiator2 theta{0.9, 0.5, 0.2};
  const uint32_t k = 4;
  const KronFitLikelihood model(theta, k);
  const EdgeProbability2 prob(theta, k);
  double direct = 0.0;
  const uint32_t n = 16;
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = u + 1; v < n; ++v) {
      const double p = prob(u, v);
      direct += p + p * p / 2;
    }
  }
  EXPECT_NEAR(model.NoEdgeTerm(), direct, 1e-9);
}

TEST(LikelihoodTest, SwapDeltaMatchesRecomputation) {
  Rng rng(99);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 5, rng);
  const KronFitLikelihood model({0.85, 0.55, 0.25}, 5);
  PermutationState sigma(32);
  // Randomize sigma a bit.
  for (int i = 0; i < 50; ++i) {
    sigma.SwapNodes(uint32_t(rng.NextBounded(32)),
                    uint32_t(rng.NextBounded(32)));
  }
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t u = uint32_t(rng.NextBounded(32));
    const uint32_t v = uint32_t(rng.NextBounded(32));
    const double before = model.LogLikelihood(g, sigma);
    const double delta = model.SwapDelta(g, sigma, u, v);
    PermutationState swapped = sigma;
    swapped.SwapNodes(u, v);
    const double after = model.LogLikelihood(g, swapped);
    EXPECT_NEAR(delta, after - before, 1e-8);
  }
}

TEST(LikelihoodTest, EdgeGradientMatchesFiniteDifferences) {
  Rng rng(7);
  const Graph g = SampleSkg({0.9, 0.5, 0.3}, 5, rng);
  const Initiator2 theta{0.8, 0.5, 0.3};
  const uint32_t k = 5;
  PermutationState sigma(32);
  const KronFitLikelihood model(theta, k);
  const Gradient3 analytic = model.EdgeGradient(g, sigma);

  const double h = 1e-6;
  auto edge_sum = [&](const Initiator2& t) {
    const KronFitLikelihood m(t, k);
    double sum = 0.0;
    g.ForEachEdge([&](Graph::NodeId u, Graph::NodeId v) {
      sum += m.EdgeTerm(sigma.Position(u), sigma.Position(v));
    });
    return sum;
  };
  const double base = edge_sum(theta);
  EXPECT_NEAR(analytic[0],
              (edge_sum({theta.a + h, theta.b, theta.c}) - base) / h,
              1e-3 * std::fabs(analytic[0]) + 1e-3);
  EXPECT_NEAR(analytic[1],
              (edge_sum({theta.a, theta.b + h, theta.c}) - base) / h,
              1e-3 * std::fabs(analytic[1]) + 1e-3);
  EXPECT_NEAR(analytic[2],
              (edge_sum({theta.a, theta.b, theta.c + h}) - base) / h,
              1e-3 * std::fabs(analytic[2]) + 1e-3);
}

TEST(LikelihoodTest, NoEdgeGradientMatchesFiniteDifferences) {
  const Initiator2 theta{0.8, 0.5, 0.3};
  const uint32_t k = 9;
  const KronFitLikelihood model(theta, k);
  const Gradient3 analytic = model.NoEdgeGradient();
  const double h = 1e-7;
  auto value = [&](const Initiator2& t) {
    return KronFitLikelihood(t, k).NoEdgeTerm();
  };
  const double base = value(theta);
  EXPECT_NEAR(analytic[0],
              (value({theta.a + h, theta.b, theta.c}) - base) / h,
              1e-4 * std::fabs(analytic[0]) + 1e-4);
  EXPECT_NEAR(analytic[1],
              (value({theta.a, theta.b + h, theta.c}) - base) / h,
              1e-4 * std::fabs(analytic[1]) + 1e-4);
  EXPECT_NEAR(analytic[2],
              (value({theta.a, theta.b, theta.c + h}) - base) / h,
              1e-4 * std::fabs(analytic[2]) + 1e-4);
}

TEST(PadWithIsolatedNodesTest, PreservesEdges) {
  const Graph g = testing::CycleGraph(5);
  const Graph padded = PadWithIsolatedNodes(g, 8);
  EXPECT_EQ(padded.NumNodes(), 8u);
  EXPECT_EQ(padded.NumEdges(), 5u);
  EXPECT_EQ(padded.Degree(7), 0u);
}

TEST(KronFitTest, RecoversDensityOnSyntheticGraph) {
  // Full KronFit on a small synthetic SKG: we expect rough recovery —
  // the entry sum (edge-count driver) should land near the truth and the
  // ordering a > b > c should hold.
  const Initiator2 truth{0.9, 0.5, 0.2};
  const uint32_t k = 9;  // 512 nodes
  Rng rng(12345);
  const Graph g = SampleSkg(truth, k, rng);
  KronFitOptions options;
  options.iterations = 40;
  const KronFitResult fit = FitKronFit(g, rng, options);
  EXPECT_EQ(fit.k, k);
  EXPECT_TRUE(fit.theta.IsValid());
  EXPECT_NEAR(fit.theta.EntrySum(), truth.EntrySum(), 0.25);
  EXPECT_GT(fit.theta.a, fit.theta.b);
  EXPECT_GT(fit.theta.b, fit.theta.c);
}

TEST(KronFitTest, LikelihoodImprovesOverInit) {
  const Initiator2 truth{0.95, 0.45, 0.25};
  const uint32_t k = 8;
  Rng rng(777);
  const Graph g = SampleSkg(truth, k, rng);
  KronFitOptions options;
  options.iterations = 30;
  const KronFitResult fit = FitKronFit(g, rng, options);

  // FitKronFit's fixed starting initiator.
  const KronFitLikelihood init_model({0.9, 0.6, 0.2}, k);
  PermutationState sigma = DegreeGuidedInit(g, k);
  const double init_ll = init_model.LogLikelihood(g, sigma);
  EXPECT_GT(fit.log_likelihood, init_ll);
}

TEST(KronFitTest, DeterministicGivenSeed) {
  Rng g_rng(55);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 8, g_rng);
  KronFitOptions options;
  options.iterations = 10;
  Rng rng1(42), rng2(42);
  const KronFitResult r1 = FitKronFit(g, rng1, options);
  const KronFitResult r2 = FitKronFit(g, rng2, options);
  EXPECT_DOUBLE_EQ(r1.theta.a, r2.theta.a);
  EXPECT_DOUBLE_EQ(r1.theta.b, r2.theta.b);
  EXPECT_DOUBLE_EQ(r1.theta.c, r2.theta.c);
}

}  // namespace
}  // namespace dpkron
