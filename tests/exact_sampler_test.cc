// The exact SKG sampler (SkgSampleMethod::kExact) against the per-pair
// loop it replaced: same graph, same stream end state, same next draws,
// at every dispatch level and thread count.

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/graph/graph_builder.h"
#include "src/skg/exact_sampler_kernels.h"
#include "src/skg/kronecker.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::SameCsr;
using testing::ScopedThreads;

// The oracle: one Rng::NextBernoulli per pair (u, v), u < v, in
// row-major order.
Graph SampleExactPerPair(const Initiator2& theta, uint32_t k, Rng& rng) {
  const EdgeProbability2 prob(theta, k);
  const uint32_t n = static_cast<uint32_t>(prob.num_nodes());
  GraphBuilder builder(n);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = u + 1; v < n; ++v) {
      if (rng.NextBernoulli(prob(u, v))) builder.AddEdge(u, v);
    }
  }
  return builder.Build();
}

struct ParityCase {
  std::string name;
  Initiator2 theta;
  std::vector<uint32_t> ks;
};

// Names the case in test listings instead of dumping its bytes.
void PrintTo(const ParityCase& c, std::ostream* os) { *os << c.name; }

std::vector<uint32_t> SmallOrders() {
  return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12};
}

// Seeds the stream and, when asked, caches a spare Gaussian in it (an
// odd number of NextGaussian calls) that the sampler must carry through.
Rng MakeRng(uint64_t seed, bool with_spare) {
  Rng rng(seed);
  if (with_spare) rng.NextGaussian();
  return rng;
}

class ExactSamplerParityTest : public ::testing::TestWithParam<ParityCase> {
};

TEST_P(ExactSamplerParityTest, MatchesPerPairOracle) {
  const ParityCase& param = GetParam();
  for (const uint32_t k : param.ks) {
    for (const uint64_t seed : {17u, 18u, 19u}) {
      for (const bool with_spare : {false, true}) {
        Rng oracle_rng = MakeRng(seed, with_spare);
        const Graph expected = SampleExactPerPair(param.theta, k, oracle_rng);
        for (const bool scalar : {true, false}) {
          for (const int threads : {1, 4}) {
            SCOPED_TRACE(::testing::Message()
                         << "k=" << k << " seed=" << seed
                         << " spare=" << with_spare << " scalar=" << scalar
                         << " threads=" << threads);
            const ScopedSimdLevelCap cap(scalar ? SimdLevel::kScalar
                                                : SimdLevel::kAvx2);
            const ScopedThreads pool(threads);
            Rng rng = MakeRng(seed, with_spare);
            const Graph got = SampleSkg(param.theta, k, rng);
            EXPECT_TRUE(SameCsr(got, expected));
            EXPECT_EQ(rng.StateFingerprint(), oracle_rng.StateFingerprint());
            Rng replay = MakeRng(seed, with_spare);
            replay.RestoreState(oracle_rng.SaveState());
            EXPECT_EQ(rng.NextGaussian(), replay.NextGaussian());
            for (int i = 0; i < 4; ++i) {
              EXPECT_EQ(rng.NextU64(), replay.NextU64());
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Thetas, ExactSamplerParityTest,
    ::testing::Values(
        ParityCase{"Registry", {0.99, 0.45, 0.25}, SmallOrders()},
        // The registry's Synthetic-SKG, at the order it is drawn at (a
        // case of its own, so ctest runs it beside the others).
        ParityCase{"RegistryOrder14", {0.99, 0.45, 0.25}, {14}},
        ParityCase{"Interior", {0.9, 0.6, 0.3}, SmallOrders()},
        ParityCase{"Sparse", {0.7, 0.2, 0.05}, SmallOrders()},
        // Every class p is a power of two: p·2^53 is an integer, so an
        // off-by-one threshold shows.
        ParityCase{"Halves", {0.5, 0.5, 0.5}, SmallOrders()},
        ParityCase{"CornerOne", {1.0, 0.5, 0.3}, SmallOrders()},
        ParityCase{"MixedZero", {0.8, 0.0, 0.6}, SmallOrders()},
        ParityCase{"CornerZeroAndOne", {0.0, 0.7, 1.0}, SmallOrders()},
        // p = 1 exactly on the pairs v = ~u, between pairs that draw.
        ParityCase{"MixedOne", {0.6, 1.0, 0.3}, SmallOrders()},
        // Products underflow to 0 from the second power on.
        ParityCase{"Underflow", {1e-300, 0.5, 0.5}, SmallOrders()},
        ParityCase{"TinyMixed", {0.9, 1e-300, 0.4}, SmallOrders()},
        ParityCase{"AllZeros", {0.0, 0.0, 0.0}, SmallOrders()},
        ParityCase{"AllOnes", {1.0, 1.0, 1.0}, SmallOrders()}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return info.param.name;
    });

TEST(ExactCoinThresholdTest, AgreesWithNextDoubleAtTheBoundary) {
  // NextDouble() is (x >> 11)·2^−53. Random streams almost never land
  // on the threshold itself, so the draws T − 2 … T + 1 are checked
  // directly, for p with an integer p·2^53 (powers of two, where an
  // off-by-one threshold would show), interior, tiny and near-1 p.
  std::vector<double> ps = {0.5,     0.25,         std::ldexp(1.0, -40),
                            0.45,    0.99 * 0.25,  1.0 / 3.0,
                            1e-300,  4.9e-324,     std::nextafter(1.0, 0.0),
                            1e-16,   0.5 + 1e-16};
  Rng pick(89);
  for (int i = 0; i < 200; ++i) ps.push_back(pick.NextDouble());
  for (const double p : ps) {
    const uint64_t t = ExactCoinThreshold(p);
    for (uint64_t m = t >= 2 ? t - 2 : 0; m <= t + 1; ++m) {
      if (m >= (uint64_t{1} << 53)) break;
      EXPECT_EQ(m < t, static_cast<double>(m) * 0x1.0p-53 < p)
          << "p=" << p << " m=" << m;
    }
  }
  EXPECT_EQ(ExactCoinThreshold(0.0), ExactSweepTables::kNoDraw);
  EXPECT_EQ(ExactCoinThreshold(1.0), ExactSweepTables::kAlwaysEdge);
}

}  // namespace
}  // namespace dpkron
