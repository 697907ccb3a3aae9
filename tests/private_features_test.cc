#include "src/dp/private_features.h"

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/common/stat_cache.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

TEST(PrivateFeaturesTest, ChargesBudgetPerAlgorithmOne) {
  Rng rng(1);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 7, rng);
  PrivacyBudget budget(0.2, 0.01);
  const auto result = ComputePrivateFeatures(g, 0.2, 0.01, budget, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(budget.epsilon_spent(), 0.2, 1e-12);
  EXPECT_NEAR(budget.delta_spent(), 0.01, 1e-12);
  ASSERT_EQ(budget.ledger().size(), 2u);
  EXPECT_NEAR(budget.ledger()[0].epsilon, 0.1, 1e-12);  // degrees: ε/2
  EXPECT_NEAR(budget.ledger()[1].epsilon, 0.1, 1e-12);  // triangles: ε/2
  EXPECT_NEAR(budget.ledger()[1].delta, 0.01, 1e-12);
}

TEST(PrivateFeaturesTest, RefusedWhenBudgetInsufficient) {
  Rng rng(2);
  const Graph g = testing::CycleGraph(16);
  PrivacyBudget budget(0.1, 0.01);
  const auto result = ComputePrivateFeatures(g, 0.2, 0.01, budget, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PrivateFeaturesTest, RejectsInvalidParameters) {
  Rng rng(3);
  const Graph g = testing::CycleGraph(16);
  EXPECT_FALSE(ComputePrivateFeatures(g, -1.0, 0.01, rng).ok());
  EXPECT_FALSE(ComputePrivateFeatures(g, 0.2, 0.0, rng).ok());
  EXPECT_FALSE(ComputePrivateFeatures(g, 0.2, 1.5, rng).ok());
}

TEST(PrivateFeaturesTest, ClampedFeaturesRespectFloor) {
  Rng rng(4);
  // Sparse graph + tiny epsilon: raw noisy counts go negative; clamped
  // outputs must sit at the floor.
  const Graph g = testing::PathGraph(32);
  const auto result = ComputePrivateFeatures(g, 0.01, 0.001, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().features.edges, 1.0);
  EXPECT_GE(result.value().features.hairpins, 1.0);
  EXPECT_GE(result.value().features.triangles, 1.0);
  EXPECT_GE(result.value().features.tripins, 1.0);
}

TEST(PrivateFeaturesTest, AccurateAtHighEpsilon) {
  Rng rng(5);
  const Graph g = SampleSkg({0.95, 0.55, 0.25}, 10, rng);
  const GraphFeatures exact = testing::ExactFeatures(g);
  const auto result = ComputePrivateFeatures(g, 50.0, 0.01, rng);
  ASSERT_TRUE(result.ok());
  const GraphFeatures& f = result.value().features;
  EXPECT_NEAR(f.edges, exact.edges, 0.02 * exact.edges);
  EXPECT_NEAR(f.hairpins, exact.hairpins, 0.05 * exact.hairpins);
  EXPECT_NEAR(f.triangles, exact.triangles, 0.10 * exact.triangles + 50);
  EXPECT_NEAR(f.tripins, exact.tripins, 0.10 * exact.tripins);
}

TEST(PrivateFeaturesTest, PaperEpsilonGivesUsableFeatures) {
  // (ε, δ) = (0.2, 0.01), the paper's setting, on a graph with the
  // density of the paper's co-authorship networks (mean degree ≈ 10;
  // relative degree-noise bias shrinks with density).
  Rng rng(6);
  const Graph g = SampleSkg({0.99, 0.55, 0.35}, 12, rng);
  const GraphFeatures exact = testing::ExactFeatures(g);
  const auto result = ComputePrivateFeatures(g, 0.2, 0.01, rng);
  ASSERT_TRUE(result.ok());
  const GraphFeatures& f = result.value().features;
  // Degrees dominate E and H; they are very accurate even at ε/2 = 0.1.
  EXPECT_NEAR(f.edges, exact.edges, 0.05 * exact.edges);
  EXPECT_NEAR(f.hairpins, exact.hairpins, 0.15 * exact.hairpins);
}

TEST(PrivateFeaturesTest, DeterministicGivenSeed) {
  Rng g_rng(7);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 8, g_rng);
  Rng rng1(99), rng2(99);
  const auto r1 = ComputePrivateFeatures(g, 0.2, 0.01, rng1);
  const auto r2 = ComputePrivateFeatures(g, 0.2, 0.01, rng2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1.value().features.edges, r2.value().features.edges);
  EXPECT_DOUBLE_EQ(r1.value().features.triangles,
                   r2.value().features.triangles);
}

TEST(PrivateFeaturesTest, RawAndClampedDifferOnlyByFloor) {
  Rng rng(8);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 9, rng);
  const auto result = ComputePrivateFeatures(g, 1.0, 0.01, rng);
  ASSERT_TRUE(result.ok());
  const auto& raw = result.value().raw;
  const auto& clamped = result.value().features;
  EXPECT_DOUBLE_EQ(clamped.edges, std::max(raw.edges, 1.0));
  EXPECT_DOUBLE_EQ(clamped.triangles, std::max(raw.triangles, 1.0));
}

TEST(ClampFeaturesTest, Pointwise) {
  GraphFeatures f;
  f.edges = -3.0;
  f.hairpins = 0.5;
  f.triangles = 100.0;
  f.tripins = 1.0;
  const GraphFeatures clamped = ClampFeatures(f, 1.0);
  EXPECT_DOUBLE_EQ(clamped.edges, 1.0);
  EXPECT_DOUBLE_EQ(clamped.hairpins, 1.0);
  EXPECT_DOUBLE_EQ(clamped.triangles, 100.0);
  EXPECT_DOUBLE_EQ(clamped.tripins, 1.0);
}

// The degree release (steps 1–3) through the StatCache with a disk
// tier attached: a repeated (graph, ε, seed) release replays its draws
// and isotonic fit from memory or disk, bit-identically, and leaves the
// caller's stream where a recompute would.
class PrivateFeaturesStatCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/degree_release_" +
            std::to_string(::getpid());
    std::filesystem::remove_all(root_);
    StatCache::Instance().Clear();
    StatCache::Instance().set_enabled(true);
    ASSERT_TRUE(StatCache::Instance().AttachDiskTier(root_).ok());
    Rng graph_rng(21);
    graph_ = SampleSkg({0.9, 0.5, 0.2}, 9, graph_rng);
  }
  void TearDown() override {
    StatCache::Instance().DetachDiskTier();
    StatCache::Instance().set_enabled(false);
    StatCache::Instance().Clear();
    std::filesystem::remove_all(root_);
  }

  // degree_release counters, zero if the domain has no entry.
  static StatCache::Counters DegreeRelease() {
    for (const auto& [name, counters] :
         StatCache::Instance().DomainCounters()) {
      if (name == "degree_release") return counters;
    }
    return {};
  }
  size_t DegreeReleaseFiles() const {
    size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(root_)) {
      if (entry.path().filename().string().rfind("degree_release-", 0) ==
          0) {
        ++files;
      }
    }
    return files;
  }

  std::string root_;
  Graph graph_;
};

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSameBits(const GraphFeatures& a, const GraphFeatures& b) {
  EXPECT_EQ(Bits(a.edges), Bits(b.edges));
  EXPECT_EQ(Bits(a.hairpins), Bits(b.hairpins));
  EXPECT_EQ(Bits(a.triangles), Bits(b.triangles));
  EXPECT_EQ(Bits(a.tripins), Bits(b.tripins));
}

void ExpectSameBits(const PrivateFeaturesResult& a,
                    const PrivateFeaturesResult& b) {
  ExpectSameBits(a.features, b.features);
  ExpectSameBits(a.raw, b.raw);
  ExpectSameBits(a.exact, b.exact);
  EXPECT_EQ(Bits(a.smooth_sensitivity), Bits(b.smooth_sensitivity));
  EXPECT_EQ(Bits(a.beta), Bits(b.beta));
}

// A release and the caller's next draws after it. The seeded stream
// first draws one Gaussian, so a spare is pending across the release.
struct Release {
  PrivateFeaturesResult result;
  std::vector<uint64_t> next_draws;
};

Release ReleaseOnce(GraphView graph, uint64_t seed, double epsilon,
                    double delta, const PrivateFeaturesOptions& options = {}) {
  Rng rng(seed);
  (void)rng.NextGaussian();
  auto result = ComputePrivateFeatures(graph, epsilon, delta, rng, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  Release release{result.ok() ? result.value() : PrivateFeaturesResult{}, {}};
  release.next_draws = {Bits(rng.NextGaussian()), rng.NextU64(),
                        Bits(rng.NextGaussian())};
  return release;
}

// The release with the StatCache off: what every tier must reproduce.
Release UncachedRelease(GraphView graph, uint64_t seed, double epsilon,
                        double delta,
                        const PrivateFeaturesOptions& options = {}) {
  StatCache::Instance().set_enabled(false);
  Release release = ReleaseOnce(graph, seed, epsilon, delta, options);
  StatCache::Instance().set_enabled(true);
  return release;
}

void ExpectSameRelease(const Release& a, const Release& b) {
  ExpectSameBits(a.result, b.result);
  EXPECT_EQ(a.next_draws, b.next_draws);
}

TEST_F(PrivateFeaturesStatCacheTest, MissMemoryHitAndDiskHitAreBitIdentical) {
  const Release reference = UncachedRelease(graph_, 5, 0.4, 0.01);

  const Release miss = ReleaseOnce(graph_, 5, 0.4, 0.01);
  ExpectSameRelease(miss, reference);
  EXPECT_EQ(DegreeRelease().misses, 1u);
  EXPECT_EQ(DegreeRelease().disk_misses, 1u);
  EXPECT_EQ(DegreeReleaseFiles(), 1u);

  const Release memory_hit = ReleaseOnce(graph_, 5, 0.4, 0.01);
  ExpectSameRelease(memory_hit, reference);
  EXPECT_EQ(DegreeRelease().hits, 1u);

  StatCache::Instance().Clear();  // a new process: only the disk is warm
  const Release disk_hit = ReleaseOnce(graph_, 5, 0.4, 0.01);
  ExpectSameRelease(disk_hit, reference);
  EXPECT_EQ(DegreeRelease().misses, 1u);
  EXPECT_EQ(DegreeRelease().disk_hits, 1u);
  EXPECT_EQ(DegreeRelease().disk_misses, 0u);
}

TEST_F(PrivateFeaturesStatCacheTest, SeedEpsilonAndDegreeOptionsMiss) {
  (void)ReleaseOnce(graph_, 5, 0.4, 0.01);
  PrivateFeaturesOptions no_postprocess;
  no_postprocess.degrees.postprocess = false;
  PrivateFeaturesOptions no_clamp;
  no_clamp.degrees.clamp_to_range = false;
  struct Variant {
    const char* name;
    uint64_t seed;
    double epsilon;
    PrivateFeaturesOptions options;
  };
  const Variant variants[] = {{"seed", 6, 0.4, {}},
                              {"epsilon", 5, 0.8, {}},
                              {"postprocess", 5, 0.4, no_postprocess},
                              {"clamp_to_range", 5, 0.4, no_clamp}};
  uint64_t misses = 1;
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    const Release release = ReleaseOnce(graph_, v.seed, v.epsilon, 0.01,
                                        v.options);
    EXPECT_EQ(DegreeRelease().misses, ++misses);
    EXPECT_EQ(DegreeRelease().hits, 0u);
    ExpectSameRelease(release,
                      UncachedRelease(graph_, v.seed, v.epsilon, 0.01,
                                      v.options));
  }
}

// δ is spent only by the triangle release, which runs after the degree
// draws: a release at another δ replays the same degree release and
// still equals its own recompute.
TEST_F(PrivateFeaturesStatCacheTest, DeltaOnlyMovesTheTriangleRelease) {
  (void)ReleaseOnce(graph_, 5, 0.4, 0.01);
  const Release other_delta = ReleaseOnce(graph_, 5, 0.4, 0.001);
  EXPECT_EQ(DegreeRelease().misses, 1u);
  EXPECT_EQ(DegreeRelease().hits, 1u);
  ExpectSameRelease(other_delta, UncachedRelease(graph_, 5, 0.4, 0.001));
}

TEST_F(PrivateFeaturesStatCacheTest, HitChargesWhatAMissCharges) {
  const auto charge = [&] {
    Rng rng(5);
    PrivacyBudget budget(1.0, 0.05);
    EXPECT_TRUE(ComputePrivateFeatures(graph_, 0.4, 0.01, budget, rng).ok());
    return budget;
  };
  const PrivacyBudget miss = charge();
  const PrivacyBudget hit = charge();
  ASSERT_EQ(DegreeRelease().hits, 1u);
  EXPECT_EQ(Bits(hit.epsilon_spent()), Bits(miss.epsilon_spent()));
  EXPECT_EQ(Bits(hit.delta_spent()), Bits(miss.delta_spent()));
  ASSERT_EQ(hit.ledger().size(), miss.ledger().size());
  for (size_t i = 0; i < hit.ledger().size(); ++i) {
    EXPECT_EQ(hit.ledger()[i].label, miss.ledger()[i].label);
    EXPECT_EQ(Bits(hit.ledger()[i].epsilon), Bits(miss.ledger()[i].epsilon));
    EXPECT_EQ(Bits(hit.ledger()[i].delta), Bits(miss.ledger()[i].delta));
  }

  // A budget that cannot cover the release is refused on a warm key too.
  Rng rng(5);
  PrivacyBudget short_budget(0.2, 0.05);
  EXPECT_EQ(ComputePrivateFeatures(graph_, 0.4, 0.01, short_budget, rng)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(DegreeRelease().hits, 1u);
}

TEST_F(PrivateFeaturesStatCacheTest, ConcurrentCallsWithOneKeyComputeOnce) {
  const Release reference = UncachedRelease(graph_, 5, 0.4, 0.01);
  constexpr int kCallers = 4;
  std::vector<Release> releases(kCallers);
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back(
        [&, i] { releases[i] = ReleaseOnce(graph_, 5, 0.4, 0.01); });
  }
  for (std::thread& caller : callers) caller.join();
  for (const Release& release : releases) {
    ExpectSameRelease(release, reference);
  }
  EXPECT_EQ(DegreeRelease().misses, 1u);
  EXPECT_EQ(DegreeRelease().hits, uint64_t{kCallers - 1});
  EXPECT_EQ(DegreeRelease().disk_misses, 1u);
}

// A release that fails is never stored. ε = denorm_min halves to 0, so
// the budget refuses its empty first charge; ε = ∞ passes an unbounded
// budget and fails the Laplace check, which runs before the lookup.
TEST_F(PrivateFeaturesStatCacheTest, FailedReleaseIsNeverMemoized) {
  struct Case {
    double epsilon;
    const char* message;
  };
  const Case cases[] = {
      {std::numeric_limits<double>::denorm_min(), "empty privacy charge"},
      {std::numeric_limits<double>::infinity(), "Laplace mechanism"}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.epsilon);
    Rng rng1(5), rng2(5);
    const auto first = ComputePrivateFeatures(graph_, c.epsilon, 0.01, rng1);
    const auto second = ComputePrivateFeatures(graph_, c.epsilon, 0.01, rng2);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(first.status().message().find(c.message), std::string::npos)
        << first.status().ToString();
    EXPECT_EQ(second.status().code(), first.status().code());
    EXPECT_EQ(second.status().message(), first.status().message());
  }
  EXPECT_EQ(DegreeRelease().misses, 0u);  // never looked up
  EXPECT_EQ(DegreeReleaseFiles(), 0u);
}

}  // namespace
}  // namespace dpkron
