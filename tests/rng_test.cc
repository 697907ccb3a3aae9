#include "src/common/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dpkron {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) differing += (a.NextU64() != b.NextU64());
  EXPECT_GT(differing, 60);
}

TEST(RngTest, ZeroSeedIsUsable) {
  Rng rng(0);
  uint64_t x = 0;
  for (int i = 0; i < 16; ++i) x |= rng.NextU64();
  EXPECT_NE(x, 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(RngTest, NextBoundedRange) {
  Rng rng(3);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedRoughlyUniform) {
  Rng rng(5);
  const uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(bound)];
  for (uint64_t v = 0; v < bound; ++v) {
    EXPECT_NEAR(counts[v], n / double(bound), 5 * std::sqrt(n / double(bound)));
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-0.5));
    EXPECT_TRUE(rng.NextBernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  const double p = 0.3;
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(p);
  EXPECT_NEAR(hits / double(n), p, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, LaplaceMoments) {
  Rng rng(19);
  const double scale = 2.5;
  const int n = 200000;
  double sum = 0.0, sum_abs = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextLaplace(scale);
    sum += x;
    sum_abs += std::fabs(x);
  }
  // E[X] = 0; E[|X|] = scale.
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_abs / n, scale, 0.05);
}

TEST(RngTest, LaplaceTailProbability) {
  // P(|X| > t·b) = exp(−t).
  Rng rng(23);
  const int n = 100000;
  int beyond = 0;
  for (int i = 0; i < n; ++i) beyond += std::fabs(rng.NextLaplace(1.0)) > 2.0;
  EXPECT_NEAR(beyond / double(n), std::exp(-2.0), 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(29);
  const double lambda = 3.0;
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(lambda);
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.01);
}

TEST(RngTest, GeometricMean) {
  Rng rng(31);
  const double p = 0.25;
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += double(rng.NextGeometric(p));
  // Mean number of failures: (1-p)/p = 3.
  EXPECT_NEAR(sum / n, (1 - p) / p, 0.1);
}

TEST(RngTest, GeometricWithPOneIsZero) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextGeometric(1.0), 0u);
}

TEST(RngTest, GeometricWithTinyPSaturatesInsteadOfWrapping) {
  // At p = 1e-300 nearly every draw exceeds 2^64 failures; such draws
  // must saturate at UINT64_MAX, never come back as a small count (the
  // out-of-range double cast returned 0 here). Only u < ~2^-53 could
  // give an in-range value, so 1000 draws never do.
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(rng.NextGeometric(1e-300), UINT64_MAX);
  }
  // In range, the draw is the plain floor(log(1-u)/log(1-p)).
  Rng a(47), b(47);
  const double u = b.NextDouble();
  const double failures = std::floor(std::log1p(-u) / std::log1p(-1e-12));
  EXPECT_EQ(a.NextGeometric(1e-12), static_cast<uint64_t>(failures));
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(41);
  for (uint32_t n : {0u, 1u, 2u, 10u, 1000u}) {
    std::vector<uint32_t> perm = rng.Permutation(n);
    ASSERT_EQ(perm.size(), n);
    std::vector<uint32_t> sorted = perm;
    std::sort(sorted.begin(), sorted.end());
    for (uint32_t i = 0; i < n; ++i) EXPECT_EQ(sorted[i], i);
  }
}

TEST(RngTest, PermutationShuffles) {
  Rng rng(43);
  const std::vector<uint32_t> p1 = rng.Permutation(100);
  const std::vector<uint32_t> p2 = rng.Permutation(100);
  EXPECT_NE(p1, p2);
}

TEST(RngTest, SplitStreamsDiffer) {
  Rng parent(47);
  Rng child = parent.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.NextU64() == child.NextU64());
  EXPECT_LT(same, 4);
}

TEST(RngTest, SplitIsDeterministic) {
  Rng a(51), b(51);
  Rng ca = a.Split(), cb = b.Split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ca.NextU64(), cb.NextU64());
}

TEST(RngTest, SplitGoldenValues) {
  // Pinned outputs of the split-tree around seed 20120330: child,
  // grandchild, second child, and the parent stream after the splits.
  // xoshiro256** + splitmix64 are pure 64-bit integer arithmetic, so
  // these values must be identical on every platform and compiler; a
  // failure here means the Split() derivation changed and every
  // experiment seeded through split streams (parallel sampling, ANF
  // sketches) silently lost reproducibility.
  Rng parent(20120330);
  Rng child = parent.Split();
  Rng grandchild = child.Split();
  Rng sibling = parent.Split();
  const uint64_t expected_child[4] = {
      0x5cd6f79af1e554abULL, 0xec5f0011c182b6f6ULL, 0xce650640a69fa4f5ULL,
      0xb0fbc22897449bc7ULL};
  const uint64_t expected_grandchild[4] = {
      0xa96e4740549353cdULL, 0x481bb43112008a57ULL, 0x7aa1d129e0e6e7ccULL,
      0x7f06edfeab11a44bULL};
  const uint64_t expected_sibling[4] = {
      0x1cf11a91424244b1ULL, 0x259bfd863f1f55c8ULL, 0xd10996c5b6ca4ba8ULL,
      0x8762d4aa96b08b9aULL};
  const uint64_t expected_parent_after[4] = {
      0xf97bd5d4fda83149ULL, 0x1ada05b30ed379eeULL, 0xf59b6cbf8e4fbae0ULL,
      0x2d0c2136840f14bfULL};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(child.NextU64(), expected_child[i]);
    EXPECT_EQ(grandchild.NextU64(), expected_grandchild[i]);
    EXPECT_EQ(sibling.NextU64(), expected_sibling[i]);
    EXPECT_EQ(parent.NextU64(), expected_parent_after[i]);
  }
}

TEST(RngTest, SplitStreamsPairwiseUncorrelated) {
  // Statistical independence proxy across the whole split family:
  // sign-agreement between any two of {parent-after, child, grandchild,
  // sibling} should be a fair coin.
  Rng parent(20120330);
  Rng child = parent.Split();
  Rng grandchild = child.Split();
  Rng sibling = parent.Split();
  Rng* streams[4] = {&parent, &child, &grandchild, &sibling};
  const int n = 4096;
  std::vector<std::vector<uint64_t>> draws(4, std::vector<uint64_t>(n));
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < n; ++i) draws[s][i] = streams[s]->NextU64();
  }
  for (int s = 0; s < 4; ++s) {
    for (int t = s + 1; t < 4; ++t) {
      int agree = 0;
      for (int i = 0; i < n; ++i) {
        agree += ((draws[s][i] >> 63) == (draws[t][i] >> 63));
      }
      // 5σ band around n/2 for a fair coin (σ = √n / 2 = 32).
      EXPECT_NEAR(agree, n / 2, 160) << "streams " << s << " vs " << t;
    }
  }
}

TEST(RngTest, DiscardMatchesSequentialDraws) {
  // Around the stepping/jumping split (2^8) and the exact sampler's
  // lane stretch (2^16), plus random lengths up to 2^20.
  std::vector<uint64_t> lengths = {0,   1,     63,    64,    65,   255,
                                   256, 257,   65535, 65536, 65537};
  Rng pick(71);
  for (int i = 0; i < 6; ++i) {
    lengths.push_back(pick.NextBounded((uint64_t{1} << 20) + 1));
  }
  for (const uint64_t n : lengths) {
    Rng jumped(73), stepped(73);
    jumped.Discard(n);
    for (uint64_t i = 0; i < n; ++i) stepped.NextU64();
    EXPECT_EQ(jumped.StateFingerprint(), stepped.StateFingerprint()) << n;
    EXPECT_EQ(jumped.NextU64(), stepped.NextU64()) << n;
  }
}

TEST(RngTest, DiscardComposes) {
  const uint64_t a = (uint64_t{1} << 40) + 12345;
  const uint64_t b = (uint64_t{1} << 62) - 977;
  Rng twice(79), once(79), swapped(79);
  twice.Discard(a);
  twice.Discard(b);
  once.Discard(a + b);
  swapped.Discard(b);
  swapped.Discard(a);
  EXPECT_EQ(twice.StateFingerprint(), once.StateFingerprint());
  EXPECT_EQ(swapped.StateFingerprint(), once.StateFingerprint());
  EXPECT_EQ(twice.NextU64(), once.NextU64());
}

TEST(RngTest, DiscardKeepsGaussianSpare) {
  Rng jumped(83), stepped(83);
  jumped.NextGaussian();  // leaves a cached spare in both
  stepped.NextGaussian();
  jumped.Discard(100003);
  for (int i = 0; i < 100003; ++i) stepped.NextU64();
  EXPECT_EQ(jumped.StateFingerprint(), stepped.StateFingerprint());
  EXPECT_EQ(jumped.NextGaussian(), stepped.NextGaussian());
  EXPECT_EQ(jumped.NextU64(), stepped.NextU64());
}

TEST(RngTest, DiscardFromConcurrentThreads) {
  // The jump matrices are built on first use; threads that race to
  // extend them must all see finished ones.
  const uint64_t lengths[4] = {(uint64_t{1} << 62) + 3, (uint64_t{1} << 45),
                               (uint64_t{1} << 30) + 99, uint64_t{1} << 16};
  uint64_t concurrent[4];
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(97);
      rng.Discard(lengths[t]);
      concurrent[t] = rng.NextU64();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) {
    Rng rng(97);
    rng.Discard(lengths[t]);
    EXPECT_EQ(concurrent[t], rng.NextU64()) << t;
  }
}

TEST(RngTest, BinomialEdgeCases) {
  Rng rng(61);
  EXPECT_EQ(rng.NextBinomial(0, 0.5), 0u);
  EXPECT_EQ(rng.NextBinomial(100, 0.0), 0u);
  EXPECT_EQ(rng.NextBinomial(100, -0.5), 0u);
  EXPECT_EQ(rng.NextBinomial(100, 1.0), 100u);
  EXPECT_EQ(rng.NextBinomial(100, 1.5), 100u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(rng.NextBinomial(7, 0.4), 7u);
  }
}

TEST(RngTest, BinomialMomentsSmallMean) {
  // n·p small: exercises the geometric-skipping path.
  Rng rng(67);
  const uint64_t n = 1000;
  const double p = 0.002;
  const int runs = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int r = 0; r < runs; ++r) {
    const double x = static_cast<double>(rng.NextBinomial(n, p));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / runs;
  const double variance = sum_sq / runs - mean * mean;
  EXPECT_NEAR(mean, n * p, 0.05);                  // E = 2
  EXPECT_NEAR(variance, n * p * (1 - p), 0.1);     // Var ≈ 2
}

TEST(RngTest, BinomialMomentsLargeMean) {
  // n·p·(1−p) large: exercises the clamped normal-approximation path.
  Rng rng(71);
  const uint64_t n = 1u << 20;
  const double p = 0.25;
  const int runs = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int r = 0; r < runs; ++r) {
    const double x = static_cast<double>(rng.NextBinomial(n, p));
    EXPECT_LE(x, static_cast<double>(n));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / runs;
  const double variance = sum_sq / runs - mean * mean;
  const double expected_sd = std::sqrt(n * p * (1 - p));  // ≈ 443.4
  EXPECT_NEAR(mean, n * p, 5 * expected_sd / std::sqrt(double(runs)));
  EXPECT_NEAR(variance / (n * p * (1 - p)), 1.0, 0.05);
}

TEST(RngTest, BinomialHighPUsesSymmetry) {
  Rng rng(73);
  const uint64_t n = 500;
  const double p = 0.995;
  const int runs = 50000;
  double sum = 0.0;
  for (int r = 0; r < runs; ++r) {
    const uint64_t x = rng.NextBinomial(n, p);
    EXPECT_LE(x, n);
    sum += static_cast<double>(x);
  }
  EXPECT_NEAR(sum / runs, n * p, 0.05);
}

}  // namespace
}  // namespace dpkron
