// StatCache: fingerprint stability, key sensitivity, hit/miss counter
// accuracy, RNG-state replay on hits, and — the load-bearing property —
// bit-identical scenario output cached vs. uncached and across thread
// counts.

#include "src/common/stat_cache.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/fnv.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/core/release.h"
#include "src/core/scenario.h"
#include "src/dp/smooth_sensitivity.h"
#include "src/graph/graph_io.h"
#include "src/kronfit/kronfit.h"
#include "src/scenarios/scenarios.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

// Enables a clean cache for one test and restores the disabled default.
class ScopedCache {
 public:
  ScopedCache() {
    StatCache::Instance().Clear();
    StatCache::Instance().set_enabled(true);
  }
  ~ScopedCache() {
    StatCache::Instance().set_enabled(false);
    StatCache::Instance().Clear();
  }
};

using testing::ScopedThreads;

TEST(GraphFingerprintTest, StableAcrossIdenticalCsrAndBuildRoutes) {
  // Two independently built but identical graphs fingerprint equally;
  // the CSR form is canonical, so build route cannot matter.
  const Graph a = testing::MakeGraph(5, {{0, 1}, {1, 2}, {3, 4}});
  const Graph b = testing::MakeGraph(5, {{3, 4}, {1, 2}, {1, 0}, {2, 1}});
  EXPECT_EQ(a.ContentFingerprint(), b.ContentFingerprint());

  // Any structural change — an edge, or only the node count — changes it.
  const Graph c = testing::MakeGraph(5, {{0, 1}, {1, 2}, {2, 4}});
  EXPECT_NE(a.ContentFingerprint(), c.ContentFingerprint());
  const Graph d = testing::MakeGraph(6, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_NE(a.ContentFingerprint(), d.ContentFingerprint());
}

TEST(CacheKeyTest, FieldOrderAndValuesMatter) {
  EXPECT_EQ(CacheKey().Mix(1).Mix(2).digest(),
            CacheKey().Mix(1).Mix(2).digest());
  EXPECT_NE(CacheKey().Mix(1).Mix(2).digest(),
            CacheKey().Mix(2).Mix(1).digest());
  EXPECT_NE(CacheKey().Mix(1).digest(), CacheKey().Mix(1).Mix(0).digest());
  EXPECT_NE(CacheKey().MixDouble(0.5).digest(),
            CacheKey().MixDouble(0.25).digest());
}

TEST(StatCacheTest, DisabledCacheIsATransparentPassthrough) {
  StatCache::Instance().Clear();
  ASSERT_FALSE(StatCache::Instance().enabled());
  int calls = 0;
  for (int i = 0; i < 3; ++i) {
    const auto value = StatCache::Instance().GetOrCompute<int>(
        "test_domain", 7, [&] { return ++calls; });
    EXPECT_EQ(*value, i + 1);  // recomputed every time
  }
  const auto total = StatCache::Instance().TotalCounters();
  EXPECT_EQ(total.hits, 0u);
  EXPECT_EQ(total.misses, 0u);
}

TEST(StatCacheTest, HitAndMissCountersAreExact) {
  ScopedCache cache;
  int calls = 0;
  auto compute = [&] { return ++calls; };
  EXPECT_EQ(*StatCache::Instance().GetOrCompute<int>("d1", 1, compute), 1);
  EXPECT_EQ(*StatCache::Instance().GetOrCompute<int>("d1", 1, compute), 1);
  EXPECT_EQ(*StatCache::Instance().GetOrCompute<int>("d1", 1, compute), 1);
  EXPECT_EQ(*StatCache::Instance().GetOrCompute<int>("d1", 2, compute), 2);
  // Same key in another domain is a distinct entry.
  EXPECT_EQ(*StatCache::Instance().GetOrCompute<int>("d2", 1, compute), 3);
  EXPECT_EQ(calls, 3);

  const auto total = StatCache::Instance().TotalCounters();
  EXPECT_EQ(total.misses, 3u);
  EXPECT_EQ(total.hits, 2u);
  const auto domains = StatCache::Instance().DomainCounters();
  ASSERT_EQ(domains.size(), 2u);
  EXPECT_EQ(domains[0].first, "d1");
  EXPECT_EQ(domains[0].second.misses, 2u);
  EXPECT_EQ(domains[0].second.hits, 2u);
  EXPECT_EQ(domains[1].first, "d2");
  EXPECT_EQ(domains[1].second.misses, 1u);
  EXPECT_EQ(domains[1].second.hits, 0u);

  StatCache::Instance().Clear();
  EXPECT_EQ(StatCache::Instance().TotalCounters().misses, 0u);
  EXPECT_EQ(*StatCache::Instance().GetOrCompute<int>("d1", 1, compute), 4);
}

TEST(StatCacheTest, CachedProfileIsSharedAndCounted) {
  ScopedCache cache;
  const Graph g = testing::CompleteGraph(8);
  const auto first = CachedTriangleSensitivityProfile(g);
  const auto second = CachedTriangleSensitivityProfile(g);
  EXPECT_EQ(first.get(), second.get());  // same object, not a copy
  EXPECT_EQ(first->LocalSensitivity(), 6u);

  // An equal-content graph hits; a different graph misses.
  const Graph same = testing::CompleteGraph(8);
  EXPECT_EQ(CachedTriangleSensitivityProfile(same).get(), first.get());
  const auto other = CachedTriangleSensitivityProfile(testing::StarGraph(8));
  EXPECT_NE(other.get(), first.get());

  const auto domains = StatCache::Instance().DomainCounters();
  ASSERT_EQ(domains.size(), 1u);
  EXPECT_EQ(domains[0].first, "triangle_profile");
  EXPECT_EQ(domains[0].second.misses, 2u);
  EXPECT_EQ(domains[0].second.hits, 2u);
}

// Before the profile dropped its exact flag, a "triangle_profile" entry
// was (num_nodes, exact, frontier) keyed by the graph fingerprint alone.
// The layout tag in today's key means such an entry is never addressed:
// the profile is computed fresh, and the old entry is left as it was.
TEST(StatCacheTest, ParentLayoutProfileEntryIsNeverAddressed) {
  const std::string root = ::testing::TempDir() + "/profile_layout_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  const Graph g = testing::StarGraph(40);
  const uint64_t parent_key = CacheKey().Mix(g.ContentFingerprint()).digest();
  RecordBuilder parent_record;
  parent_record.U32(g.NumNodes()).U32(1);
  EncodePodVector(parent_record,
                  std::vector<std::pair<uint64_t, uint64_t>>{{7, 7}});
  auto disk = DiskCache::Open(root);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_TRUE(disk.value()
                  ->Store("triangle_profile", parent_key, parent_record.str())
                  .ok());

  {
    ScopedCache cache;
    ASSERT_TRUE(StatCache::Instance().AttachDiskTier(root).ok());
    const auto profile = CachedTriangleSensitivityProfile(g);
    StatCache::Instance().DetachDiskTier();
    EXPECT_EQ(profile->frontier(), TriangleSensitivityProfile(g).frontier());
    const auto domains = StatCache::Instance().DomainCounters();
    ASSERT_EQ(domains.size(), 1u);
    EXPECT_EQ(domains[0].second.disk_hits, 0u);
    EXPECT_EQ(domains[0].second.disk_misses, 1u);
  }
  const auto untouched = disk.value()->Load("triangle_profile", parent_key);
  ASSERT_TRUE(untouched.ok()) << untouched.status().ToString();
  EXPECT_EQ(untouched.value(), parent_record.str());
  std::filesystem::remove_all(root);
}

// A warm disk tier serves whatever a domain's function produced when
// the entry was written: keys see inputs, not code. These digests pin
// each deterministic domain's encoded record on one fixed input beside
// its layout, so a change to one of these outputs fails here until the
// domain's layout is bumped along with its digest. (kronfit,
// kronmom_fit and degree_release run through libm transcendentals, so
// their bits are not pinned; graph_load is pinned in
// tests/graph_source_test.cc.)
TEST(StatCacheTest, DomainOutputsArePinnedToTheirLayouts) {
  Rng edge_rng(7);
  testing::EdgeList edges;
  while (edges.size() < 1200) {  // 160 nodes: the hop plot is exact
    const auto u = static_cast<Graph::NodeId>(edge_rng.NextU64() % 160);
    const auto v = static_cast<Graph::NodeId>(edge_rng.NextU64() % 160);
    if (u != v) edges.emplace_back(u, v);
  }
  const Graph g = testing::MakeGraph(160, edges);
  const auto digest = [](const auto& domain, const auto& value) {
    RecordBuilder rec;
    domain.encode(value, rec);
    return Fnv1a64(rec.str().data(), rec.str().size());
  };
  const ReleasePipeline pipeline;
  Rng rng(11);

  EXPECT_EQ(kNodeStatsDomain.layout, 1u);
  EXPECT_EQ(digest(kNodeStatsDomain, ComputeNodeStats(g)),
            0xf5f2e32130c88846ull);
  EXPECT_EQ(kTriangleProfileDomain.layout, 2u);
  EXPECT_EQ(digest(kTriangleProfileDomain, TriangleSensitivityProfile(g)),
            0x67d5f8467c953293ull);
  EXPECT_EQ(kStatisticsDomain.layout, 1u);
  EXPECT_EQ(digest(kStatisticsDomain, pipeline.Compute(g, rng)),
            0xa77543f9fa9926f0ull);
  EXPECT_EQ(kExpectedDomain.layout, 1u);
  EXPECT_EQ(digest(kExpectedDomain,
                   pipeline.Expected({0.9, 0.5, 0.2}, 8, 2, rng)),
            0x80fb0eee7eb2aac4ull);
}

TEST(StatCacheTest, KronFitHitReplaysTheRngStream) {
  // A cached fit must leave the caller's rng exactly where the real fit
  // left it, so everything downstream draws identical values.
  const Graph g = testing::CompleteGraph(32);
  KronFitOptions options;
  options.iterations = 2;

  Rng uncached_rng(42);
  const KronFitResult uncached = FitKronFit(g, uncached_rng, options);
  const uint64_t end_state = uncached_rng.StateFingerprint();

  ScopedCache cache;
  Rng miss_rng(42);
  const KronFitResult miss = FitKronFitCached(g, miss_rng, options);
  Rng hit_rng(42);
  const KronFitResult hit = FitKronFitCached(g, hit_rng, options);

  EXPECT_EQ(StatCache::Instance().TotalCounters().misses, 1u);
  EXPECT_EQ(StatCache::Instance().TotalCounters().hits, 1u);
  for (const KronFitResult* result : {&miss, &hit}) {
    EXPECT_EQ(result->theta.a, uncached.theta.a);
    EXPECT_EQ(result->theta.b, uncached.theta.b);
    EXPECT_EQ(result->theta.c, uncached.theta.c);
    EXPECT_EQ(result->log_likelihood, uncached.log_likelihood);
    EXPECT_EQ(result->k, uncached.k);
  }
  EXPECT_EQ(miss_rng.StateFingerprint(), end_state);
  EXPECT_EQ(hit_rng.StateFingerprint(), end_state);
  // A different seed is a different key, not a wrong hit.
  Rng other_rng(43);
  (void)FitKronFitCached(g, other_rng, options);
  EXPECT_EQ(StatCache::Instance().TotalCounters().misses, 2u);
}

// The load-bearing property behind the sweep engine: a scenario run
// with the cache enabled — cold or warm, at any thread count — emits
// exactly the bytes the uncached path emits.
TEST(StatCacheTest, ScenarioOutputBitIdenticalCachedVsUncachedAndThreads) {
  RegisterAllScenarios();
  const ScenarioSpec* spec = FindScenario("fig2_as20");
  ASSERT_NE(spec, nullptr);
  // A small file-backed dataset keeps the six full scenario runs below
  // affordable under sanitizers.
  const std::string path = ::testing::TempDir() + "/cache_ident_" +
                           std::to_string(::getpid()) + ".edges";
  {
    std::ofstream out(path);
    for (int i = 1; i < 120; ++i) {
      out << 0 << '\t' << i << '\n';
      out << i << '\t' << (i % 11) + 120 << '\n';
    }
  }
  std::remove(BinaryCachePath(path).c_str());
  ScenarioOverrides overrides;
  overrides.smoke = true;
  overrides.kronfit_iterations = 2;
  overrides.dataset = path;
  overrides.dataset_cache = true;

  auto run_json = [&]() {
    ScenarioOutput output(spec->name, /*text_out=*/nullptr);
    const Status status = RunScenario(*spec, overrides, output);
    EXPECT_TRUE(status.ok()) << status.ToString();
    output.set_elapsed_seconds(0.0);  // the only nondeterministic field
    JsonWriter json;
    output.AppendRunJson(json);
    return json.str();
  };

  StatCache::Instance().set_enabled(false);
  StatCache::Instance().Clear();
  const std::string uncached = run_json();

  ScopedCache cache;
  const std::string cold = run_json();   // populates the cache
  const std::string warm = run_json();   // served from it
  EXPECT_GT(StatCache::Instance().TotalCounters().hits, 0u);
  EXPECT_EQ(uncached, cold);
  EXPECT_EQ(uncached, warm);

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    ScopedThreads scope(threads);
    EXPECT_EQ(run_json(), uncached);
  }
  std::remove(path.c_str());
  std::remove(BinaryCachePath(path).c_str());
}

}  // namespace
}  // namespace dpkron
