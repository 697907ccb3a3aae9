#include "src/skg/class_sampler.h"

#include <cmath>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/skg/kronecker.h"
#include "src/skg/moments.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using internal_class_sampler::Choose;
using internal_class_sampler::ClassSize;
using internal_class_sampler::PairUV;
using internal_class_sampler::UnrankCombination;
using internal_class_sampler::UnrankPair;

TEST(ChooseTest, SmallValues) {
  EXPECT_EQ(Choose(0, 0), 1u);
  EXPECT_EQ(Choose(5, 0), 1u);
  EXPECT_EQ(Choose(5, 5), 1u);
  EXPECT_EQ(Choose(5, 2), 10u);
  EXPECT_EQ(Choose(14, 7), 3432u);
  EXPECT_EQ(Choose(30, 15), 155117520u);
  EXPECT_EQ(Choose(3, 5), 0u);
}

TEST(ClassSizeTest, SumsToAllOffDiagonalPairs) {
  for (uint32_t k : {1u, 2u, 3u, 5u, 8u}) {
    uint64_t total = 0;
    for (uint32_t i = 0; i <= k; ++i) {
      for (uint32_t j = 0; i + j <= k; ++j) {
        total += ClassSize(k, i, j);
      }
    }
    const uint64_t n = uint64_t{1} << k;
    EXPECT_EQ(total, n * (n - 1) / 2) << "k=" << k;
  }
}

TEST(ClassSizeTest, DiagonalClassesEmpty) {
  EXPECT_EQ(ClassSize(5, 2, 0), 0u);
  EXPECT_EQ(ClassSize(5, 0, 0), 0u);
}

TEST(UnrankCombinationTest, EnumeratesLexicographically) {
  // C(5,2) = 10 combinations; check full order.
  uint32_t out[2];
  std::set<std::pair<uint32_t, uint32_t>> seen;
  std::pair<uint32_t, uint32_t> previous{0, 0};
  for (uint64_t rank = 0; rank < 10; ++rank) {
    UnrankCombination(5, 2, rank, out);
    EXPECT_LT(out[0], out[1]);
    const std::pair<uint32_t, uint32_t> combo{out[0], out[1]};
    EXPECT_TRUE(seen.insert(combo).second);
    if (rank > 0) {
      EXPECT_LT(previous, combo);
    }
    previous = combo;
  }
}

TEST(UnrankPairTest, BijectionOntoClass) {
  // For every class of a k=5 cube, the unranked pairs must be distinct,
  // canonical (u < v) and have exactly the class's digit profile.
  const uint32_t k = 5;
  std::set<std::pair<uint64_t, uint64_t>> all_pairs;
  for (uint32_t i = 0; i + 1 <= k; ++i) {
    for (uint32_t j = 1; i + j <= k; ++j) {
      const uint64_t size = ClassSize(k, i, j);
      for (uint64_t rank = 0; rank < size; ++rank) {
        const PairUV pair = UnrankPair(k, i, j, rank);
        EXPECT_LT(pair.u, pair.v);
        const uint64_t both = pair.u & pair.v;
        const uint64_t differ = pair.u ^ pair.v;
        EXPECT_EQ(uint32_t(__builtin_popcountll(both)), i);
        EXPECT_EQ(uint32_t(__builtin_popcountll(differ)), j);
        EXPECT_TRUE(all_pairs.insert({pair.u, pair.v}).second)
            << "duplicate pair at class (" << i << "," << j << ") rank "
            << rank;
      }
    }
  }
  const uint64_t n = 32;
  EXPECT_EQ(all_pairs.size(), n * (n - 1) / 2);
}

TEST(ClassSamplerTest, DeterministicGivenSeed) {
  Rng a(5), b(5);
  EXPECT_EQ(SampleSkgClassSkip({0.9, 0.5, 0.2}, 8, a).Edges(),
            SampleSkgClassSkip({0.9, 0.5, 0.2}, 8, b).Edges());
}

TEST(ClassSamplerTest, AllOnesGivesCompleteGraph) {
  Rng rng(7);
  const Graph g = SampleSkgClassSkip({1.0, 1.0, 1.0}, 4, rng);
  EXPECT_EQ(g.NumEdges(), 16u * 15 / 2);
}

TEST(ClassSamplerTest, AllZerosGivesEmptyGraph) {
  Rng rng(9);
  EXPECT_EQ(SampleSkgClassSkip({0.0, 0.0, 0.0}, 6, rng).NumEdges(), 0u);
}

TEST(ClassSamplerTest, PerPairFrequencyMatchesProbability) {
  const Initiator2 theta{0.9, 0.6, 0.3};
  const EdgeProbability2 prob(theta, 3);
  Rng rng(11);
  const int runs = 4000;
  int hits_25 = 0, hits_07 = 0;
  for (int r = 0; r < runs; ++r) {
    const Graph g = SampleSkgClassSkip(theta, 3, rng);
    hits_25 += g.HasEdge(2, 5);
    hits_07 += g.HasEdge(0, 7);
  }
  EXPECT_NEAR(hits_25 / double(runs), prob(2, 5), 0.03);
  EXPECT_NEAR(hits_07 / double(runs), prob(0, 7), 0.03);
}

TEST(ClassSamplerTest, MomentsMatchClosedForm) {
  const Initiator2 theta{0.99, 0.45, 0.25};
  const uint32_t k = 7;
  Rng rng(13);
  double edges = 0, wedges = 0, triangles = 0;
  const int runs = 300;
  for (int r = 0; r < runs; ++r) {
    const Graph g = SampleSkgClassSkip(theta, k, rng);
    const GraphFeatures f = testing::ExactFeatures(g);
    edges += f.edges;
    wedges += f.hairpins;
    triangles += f.triangles;
  }
  const SkgMoments m = ExpectedMoments(theta, k);
  EXPECT_NEAR(edges / runs, m.edges, 0.05 * m.edges + 2);
  EXPECT_NEAR(wedges / runs, m.hairpins, 0.10 * m.hairpins + 10);
  EXPECT_NEAR(triangles / runs, m.triangles, 0.25 * m.triangles + 4);
}

TEST(ClassSamplerTest, AgreesWithExactSamplerInDistribution) {
  // Same theta, k: mean/variance of the edge count should agree between
  // the O(4^k) sweep and the class-skipping sampler.
  const Initiator2 theta{0.9, 0.5, 0.3};
  const uint32_t k = 6;
  Rng rng_a(17), rng_b(19);
  const int runs = 400;
  double sum_a = 0, sum_b = 0, sq_a = 0, sq_b = 0;
  for (int r = 0; r < runs; ++r) {
    const double ea = double(SampleSkg(theta, k, rng_a).NumEdges());
    SkgSampleOptions options;
    options.method = SkgSampleMethod::kClassSkip;
    const double eb = double(SampleSkg(theta, k, rng_b, options).NumEdges());
    sum_a += ea;
    sum_b += eb;
    sq_a += ea * ea;
    sq_b += eb * eb;
  }
  const double mean_a = sum_a / runs, mean_b = sum_b / runs;
  const double var_a = sq_a / runs - mean_a * mean_a;
  const double var_b = sq_b / runs - mean_b * mean_b;
  EXPECT_NEAR(mean_b, mean_a, 0.05 * mean_a);
  EXPECT_NEAR(var_b, var_a, 0.5 * var_a + 5);
}

// Edges of `g` per probability class, at counts[n11 * (k + 1) + nb].
void AddClassCounts(const Graph& g, uint32_t k, std::vector<uint64_t>* counts) {
  for (const auto& [u, v] : g.Edges()) {
    const uint32_t n11 = static_cast<uint32_t>(__builtin_popcount(u & v));
    const uint32_t nb = static_cast<uint32_t>(__builtin_popcount(u ^ v));
    ++(*counts)[n11 * (k + 1) + nb];
  }
}

// Half-width t with P(|S| ≥ t) ≤ alpha for S a sum of independent
// zero-mean terms bounded by 1 in absolute value with total variance
// `variance` (Bernstein: 2·exp(−t² / (2(σ² + t/3)))). No normal
// approximation, so the bound holds for tiny class counts too.
double BernsteinHalfWidth(double variance, double alpha) {
  const double l = std::log(2.0 / alpha);
  return l / 3.0 + std::sqrt(l * l / 9.0 + 2.0 * l * variance);
}

TEST(ClassSamplerTest, PerClassFrequencyMatchesExactSampler) {
  // Both samplers flip one coin of probability p(n11, nb) per pair, so
  // over `runs` realizations a class's edge count is exactly
  // Binomial(runs · |class|, p) under each. Per class, three checks:
  // each sampler's count against that mean, and the two counts against
  // each other. Fixed seeds; Bonferroni over every check keeps the
  // overall false-alarm probability at most 1e-6.
  struct Case {
    Initiator2 theta;
    uint32_t k;
    int runs;
  };
  const std::vector<Case> cases = {{{0.99, 0.45, 0.25}, 8, 1000},
                                   {{0.9, 0.6, 0.3}, 6, 2000},
                                   {{0.7, 0.2, 0.05}, 4, 4000}};
  int checks = 0;
  for (const Case& c : cases) checks += 3 * int(c.k * (c.k + 1) / 2);
  const double alpha = 1e-6 / checks;

  Rng rng_exact(101), rng_class(103);
  SkgSampleOptions class_skip;
  class_skip.method = SkgSampleMethod::kClassSkip;
  for (const Case& c : cases) {
    const uint32_t k = c.k;
    const EdgeProbability2 prob(c.theta, k);
    std::vector<uint64_t> exact((k + 1) * (k + 1)), skip((k + 1) * (k + 1));
    for (int r = 0; r < c.runs; ++r) {
      AddClassCounts(SampleSkg(c.theta, k, rng_exact), k, &exact);
      AddClassCounts(SampleSkg(c.theta, k, rng_class, class_skip), k, &skip);
    }
    for (uint32_t n11 = 0; n11 < k; ++n11) {
      for (uint32_t nb = 1; n11 + nb <= k; ++nb) {
        SCOPED_TRACE(::testing::Message() << "k=" << k << " n11=" << n11
                                          << " nb=" << nb);
        const double p = prob.ClassProbability(n11, nb);
        const double trials =
            double(c.runs) * double(ClassSize(k, n11, nb));
        const double variance = trials * p * (1.0 - p);
        const double x = double(exact[n11 * (k + 1) + nb]);
        const double y = double(skip[n11 * (k + 1) + nb]);
        EXPECT_LT(std::fabs(x - trials * p),
                  BernsteinHalfWidth(variance, alpha));
        EXPECT_LT(std::fabs(y - trials * p),
                  BernsteinHalfWidth(variance, alpha));
        EXPECT_LT(std::fabs(x - y), BernsteinHalfWidth(2 * variance, alpha));
      }
    }
  }
}

TEST(ClassSamplerTest, LargeOrderRuns) {
  // k = 16 is far beyond the exact sweep's reach; class skipping samples
  // it in milliseconds with the exact law.
  Rng rng(23);
  const Graph g = SampleSkgClassSkip({0.99, 0.45, 0.25}, 16, rng);
  EXPECT_EQ(g.NumNodes(), uint32_t{1} << 16);
  const double expected = ExpectedEdges({0.99, 0.45, 0.25}, 16);
  EXPECT_NEAR(double(g.NumEdges()), expected, 6 * std::sqrt(expected));
}

TEST(ClassSamplerTest, NearZeroEntryKeepsTheExpectedDensity) {
  // c = 1e-13 puts every class with two or more both-ones digits below
  // p = 1e-26, where a geometric skip passes 2^64 and saturates. Those
  // classes must stay (almost surely) empty: a skip that wrapped or came
  // back as 0 would add every pair of the class. The edge count stays
  // within 6 standard deviations of the mean, as in LargeOrderRuns.
  const Initiator2 theta{0.99, 0.45, 1e-13};
  const uint32_t k = 10;
  SkgSampleOptions options;
  options.method = SkgSampleMethod::kClassSkip;
  Rng rng(31);
  const Graph g = SampleSkg(theta, k, rng, options);
  const double expected = ExpectedEdges(theta, k);
  EXPECT_NEAR(double(g.NumEdges()), expected, 6 * std::sqrt(expected));
}

TEST(ClassSamplerDeathTest, RejectsHugeK) {
  Rng rng(29);
  EXPECT_DEATH(SampleSkgClassSkip({0.5, 0.5, 0.5}, 31, rng), "CHECK");
}

}  // namespace
}  // namespace dpkron
