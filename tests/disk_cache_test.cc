// DiskCache + the StatCache disk tier: entry round-trips, every
// corruption/crash shape degrading to a clean miss (never a wrong hit,
// never an abort), the cross-process claim protocol (winner computes,
// loser adopts, stale locks break), byte-budget eviction, and the
// bit-identical-on-hit contract across a simulated process restart —
// including Rng stream replay for KronFit.

#include "src/common/disk_cache.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/env.h"
#include "src/common/stat_cache.h"
#include "src/core/private_estimator.h"
#include "src/core/release.h"
#include "src/graph/node_stats.h"
#include "src/kronfit/kronfit.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

// Process-unique cache root, removed on destruction.
class TempCacheRoot {
 public:
  explicit TempCacheRoot(const std::string& stem)
      : path_(::testing::TempDir() + "/" + stem + "_" +
              std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
  }
  ~TempCacheRoot() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Enables a clean cache (optionally with a disk tier) for one test and
// restores the disabled, detached default.
class ScopedCache {
 public:
  ScopedCache() {
    StatCache::Instance().Clear();
    StatCache::Instance().set_enabled(true);
  }
  ~ScopedCache() {
    StatCache::Instance().set_enabled(false);
    StatCache::Instance().DetachDiskTier();
    StatCache::Instance().set_byte_budget(0);
    StatCache::Instance().Clear();
  }
};

std::unique_ptr<DiskCache> MustOpen(const std::string& root) {
  auto cache = DiskCache::Open(root);
  EXPECT_TRUE(cache.ok()) << cache.status().ToString();
  return std::move(cache).value();
}

TEST(DiskCacheTest, StoreLoadRoundTripUnderANestedRoot) {
  TempCacheRoot root("disk_cache_roundtrip");
  // Nested path: Open must create every missing level.
  const auto cache = MustOpen(root.path() + "/a/b");

  EXPECT_EQ(cache->Load("d", 7).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(cache->Store("d", 7, "payload bytes").ok());
  auto loaded = cache->Load("d", 7);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), "payload bytes");
  EXPECT_TRUE(GetEnv()->FileExists(cache->EntryPath("d", 7)));

  // Distinct (domain, key) pairs are distinct entries.
  EXPECT_EQ(cache->Load("d", 8).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cache->Load("e", 7).status().code(), StatusCode::kNotFound);

  // A second cache object on the same root (another process) sees it.
  EXPECT_EQ(MustOpen(root.path() + "/a/b")->Load("d", 7).value(),
            "payload bytes");
}

TEST(DiskCacheTest, RejectsAnEmptyRoot) {
  EXPECT_EQ(DiskCache::Open("").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DiskCacheTest, EveryCorruptionShapeIsACleanMissAndRewritable) {
  TempCacheRoot root("disk_cache_corrupt");
  const auto cache = MustOpen(root.path());
  const std::string path = cache->EntryPath("d", 42);
  ASSERT_TRUE(cache->Store("d", 42, "the value").ok());
  const std::string good = GetEnv()->ReadFileToString(path).value();

  // Each mutation of the entry file must read as kNotFound — and leave
  // the slot rewritable (the corpse is unlinked, the rewrite hits).
  const std::string flipped = [&] {
    std::string s = good;
    s[s.size() / 2] ^= 0x40;  // payload bit rot
    return s;
  }();
  const std::vector<std::pair<const char*, std::string>> mutations = {
      {"empty file", ""},
      {"torn tail", good.substr(0, good.size() / 2)},
      {"header only", good.substr(0, 8)},
      {"bit rot", flipped},
      {"garbage", "not a cache entry at all"},
      {"trailing junk", good + "extra bytes past the record"},
  };
  for (const auto& [label, bytes] : mutations) {
    SCOPED_TRACE(label);
    ASSERT_TRUE(WriteFileDurable(path, bytes).ok());
    EXPECT_EQ(cache->Load("d", 42).status().code(), StatusCode::kNotFound);
    EXPECT_FALSE(GetEnv()->FileExists(path));  // corpse unlinked
    ASSERT_TRUE(cache->Store("d", 42, "the value").ok());
    EXPECT_EQ(cache->Load("d", 42).value(), "the value");
  }
}

TEST(DiskCacheTest, AMisfiledEntryIsAMissNotAWrongHit) {
  TempCacheRoot root("disk_cache_misfile");
  const auto cache = MustOpen(root.path());
  ASSERT_TRUE(cache->Store("d1", 1, "value for d1/1").ok());
  // Simulate a filename collision / a tampered store: the bytes of
  // (d1, 1) sitting at (d2, 1)'s and (d1, 2)'s paths. The embedded
  // (domain, key) must refuse both.
  const std::string good =
      GetEnv()->ReadFileToString(cache->EntryPath("d1", 1)).value();
  ASSERT_TRUE(WriteFileDurable(cache->EntryPath("d2", 1), good).ok());
  ASSERT_TRUE(WriteFileDurable(cache->EntryPath("d1", 2), good).ok());
  EXPECT_EQ(cache->Load("d2", 1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cache->Load("d1", 2).status().code(), StatusCode::kNotFound);
  // The legitimate entry is untouched.
  EXPECT_EQ(cache->Load("d1", 1).value(), "value for d1/1");
}

TEST(DiskCacheFaultInjectionTest, CrashMidStoreNeverPublishesATornEntry) {
  TempCacheRoot root("disk_cache_crash");
  FaultInjectionEnv env;
  ScopedEnvOverride scope(&env);
  const auto cache = MustOpen(root.path());

  // A short write followed by the kill −9 (every unsynced byte dropped):
  // the store reports failure and no entry — torn or otherwise — exists.
  env.FailWrites(/*after=*/0, Status::Internal("disk error"),
                 /*short_write_bytes=*/5);
  EXPECT_FALSE(cache->Store("d", 9, "a value that never lands").ok());
  env.ClearFaults();
  env.DropUnsyncedData();
  EXPECT_EQ(cache->Load("d", 9).status().code(), StatusCode::kNotFound);

  // A failed fsync: same contract (WriteFileDurable refuses to rename).
  env.FailSyncs(/*after=*/0, Status::Internal("fsync error"));
  EXPECT_FALSE(cache->Store("d", 9, "still never lands").ok());
  env.ClearFaults();
  EXPECT_EQ(cache->Load("d", 9).status().code(), StatusCode::kNotFound);

  // And once storage recovers, the slot fills normally — and the entry
  // survives the crash because Store synced before renaming.
  ASSERT_TRUE(cache->Store("d", 9, "durable now").ok());
  env.DropUnsyncedData();
  EXPECT_EQ(cache->Load("d", 9).value(), "durable now");
}

TEST(DiskCacheTest, ClaimLoserAdoptsTheWinnersEntry) {
  TempCacheRoot root("disk_cache_claim");
  DiskCache::Options options;
  options.lock.poll_ms = 2;
  // Two cache objects on one root — the in-process analogue of two
  // processes racing on the same cold key (no shared memory state).
  auto a = DiskCache::Open(root.path(), options);
  auto b = DiskCache::Open(root.path(), options);
  ASSERT_TRUE(a.ok() && b.ok());

  std::atomic<bool> winner_holds_lock{false};
  std::atomic<int> computes{0};
  std::string winner_bytes, loser_bytes;

  std::thread winner([&] {
    DiskEntryClaim claim(a.value().get(), "race", 77);
    ASSERT_FALSE(claim.TryLoad(&winner_bytes));  // cold key: we own it
    winner_holds_lock.store(true);
    // Hold the lock across a real compute window so the loser is forced
    // through its poll loop.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ++computes;
    winner_bytes = "computed once";
    claim.Store(winner_bytes);
  });
  std::thread loser([&] {
    while (!winner_holds_lock.load()) std::this_thread::yield();
    DiskEntryClaim claim(b.value().get(), "race", 77);
    if (!claim.TryLoad(&loser_bytes)) {
      ++computes;  // would only happen if the protocol degraded
      loser_bytes = "computed once";
      claim.Store(loser_bytes);
    }
  });
  winner.join();
  loser.join();

  // Both observers agree; the loser adopted instead of recomputing.
  EXPECT_EQ(winner_bytes, "computed once");
  EXPECT_EQ(loser_bytes, "computed once");
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(a.value()->Load("race", 77).value(), "computed once");
  // The lock is gone — no debris blocks the next cold key.
  EXPECT_FALSE(
      GetEnv()->FileExists(a.value()->EntryPath("race", 77) + ".lock"));
}

TEST(DiskCacheTest, AStaleLockIsBrokenNotWaitedOnForever) {
  TempCacheRoot root("disk_cache_stale");
  DiskCache::Options options;
  options.lock.poll_ms = 2;
  options.lock.stale_ms = 30;  // presume-orphaned threshold
  auto cache = DiskCache::Open(root.path(), options);
  ASSERT_TRUE(cache.ok());

  // An orphaned lock (its holder was kill −9'd mid-compute) with no
  // entry behind it.
  const std::string lock = cache.value()->EntryPath("d", 5) + ".lock";
  ASSERT_TRUE(GetEnv()->NewExclusiveFile(lock).ok());

  DiskEntryClaim claim(cache.value().get(), "d", 5);
  std::string bytes;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(claim.TryLoad(&bytes));  // broke the lock, reports a miss
  // ...after roughly the stale threshold, not hanging indefinitely.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
  claim.Store("recovered");
  EXPECT_EQ(cache.value()->Load("d", 5).value(), "recovered");
  EXPECT_FALSE(GetEnv()->FileExists(lock));
}

TEST(DiskCacheTest, NullCacheClaimIsAMissWithNoopStore) {
  DiskEntryClaim claim(nullptr, "d", 1);
  std::string bytes;
  EXPECT_FALSE(claim.TryLoad(&bytes));
  claim.Store("dropped on the floor");  // must not crash
}

TEST(DiskCacheTest, PodVectorAndRngStateCodecsRoundTrip) {
  const std::vector<uint32_t> degrees = {5, 0, 17, 3};
  const std::vector<std::pair<uint64_t, uint64_t>> frontier = {{1, 2},
                                                               {30, 40}};
  const std::vector<double> empty;
  Rng rng(123);
  (void)rng.NextGaussian();  // odd draw count: have_gaussian set
  const Rng::State state = rng.SaveState();

  RecordBuilder rec;
  EncodePodVector(rec, degrees);
  EncodePodVector(rec, frontier);
  EncodePodVector(rec, empty);
  EncodeRngState(rec, state);

  RecordParser parser(rec.str());
  std::vector<uint32_t> degrees2;
  std::vector<std::pair<uint64_t, uint64_t>> frontier2;
  std::vector<double> empty2 = {1.0};  // must be cleared by decode
  Rng::State state2;
  EXPECT_TRUE(DecodePodVector(parser, &degrees2));
  EXPECT_TRUE(DecodePodVector(parser, &frontier2));
  EXPECT_TRUE(DecodePodVector(parser, &empty2));
  EXPECT_TRUE(DecodeRngState(parser, &state2));
  EXPECT_TRUE(parser.done());
  EXPECT_EQ(degrees2, degrees);
  EXPECT_EQ(frontier2, frontier);
  EXPECT_TRUE(empty2.empty());

  // The restored stream IS the saved stream.
  Rng replay(1);
  replay.RestoreState(state2);
  EXPECT_EQ(replay.StateFingerprint(), rng.StateFingerprint());

  // A byte count that is not a multiple of the element size is a
  // decode failure, not a partial vector.
  RecordBuilder bad;
  bad.Str("12345");  // 5 bytes into uint32_t elements
  RecordParser bad_parser(bad.str());
  std::vector<uint32_t> out;
  EXPECT_FALSE(DecodePodVector(bad_parser, &out));
}

// ------------------------------------------------- StatCache disk tier

TEST(StatCacheDiskTierTest, DurableEntrySurvivesAProcessRestart) {
  TempCacheRoot root("stat_cache_disk");
  ScopedCache cache;
  ASSERT_TRUE(StatCache::Instance().AttachDiskTier(root.path()).ok());
  EXPECT_TRUE(StatCache::Instance().disk_attached());
  EXPECT_EQ(StatCache::Instance().disk_root(), root.path());

  int computes = 0;
  auto get = [&] {
    return StatCache::Instance().GetOrComputeDurable<std::vector<uint32_t>>(
        "test_vec", 11,
        [&] {
          ++computes;
          return std::vector<uint32_t>{4, 5, 6};
        },
        [](const std::vector<uint32_t>& v, RecordBuilder& rec) {
          EncodePodVector(rec, v);
        },
        [](RecordParser& rec) -> std::optional<std::vector<uint32_t>> {
          std::vector<uint32_t> v;
          if (!DecodePodVector(rec, &v)) return std::nullopt;
          return v;
        });
  };

  const auto cold = get();
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(StatCache::Instance().TotalCounters().disk_misses, 1u);
  // In-memory hit: the disk is not consulted again.
  (void)get();
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(StatCache::Instance().TotalCounters().disk_hits, 0u);

  // "Restart": the memo dies, the disk survives — a warm hit serves the
  // exact value without calling the compute function.
  StatCache::Instance().Clear();
  const auto warm = get();
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(*warm, *cold);
  EXPECT_EQ(StatCache::Instance().TotalCounters().disk_hits, 1u);
  EXPECT_EQ(StatCache::Instance().TotalCounters().disk_misses, 0u);

  // The node-stats entry behind Algorithm 1: a warm process serves the
  // whole estimator from disk without one CSR pass, and releases the
  // same Θ̃ the cold process did.
  Rng sample_rng(5);
  const Graph g = SampleSkg(Initiator2{0.9, 0.6, 0.2}, 7, sample_rng);
  auto estimate = [&g](PassCounter* passes) {
    Rng rng(9);
    return EstimatePrivateSkg(GraphView(g).WithPassCounter(passes), 0.5, 0.01,
                              rng)
        .value()
        .theta;
  };
  PassCounter cold_passes, warm_passes;
  const Initiator2 cold_theta = estimate(&cold_passes);
  StatCache::Instance().Clear();
  const Initiator2 warm_theta = estimate(&warm_passes);
  EXPECT_EQ(cold_passes.count("node_stats"), 1u);
  EXPECT_EQ(warm_passes.total(), 0u);
  EXPECT_EQ(warm_theta.a, cold_theta.a);
  EXPECT_EQ(warm_theta.b, cold_theta.b);
  EXPECT_EQ(warm_theta.c, cold_theta.c);
}

TEST(StatCacheDiskTierTest, CorruptEntryRecomputesAndRewrites) {
  TempCacheRoot root("stat_cache_disk_corrupt");
  ScopedCache cache;
  ASSERT_TRUE(StatCache::Instance().AttachDiskTier(root.path()).ok());

  int computes = 0;
  auto get = [&] {
    return StatCache::Instance().GetOrComputeDurable<uint64_t>(
        "test_u64", 3,
        [&] {
          ++computes;
          return uint64_t{777};
        },
        [](uint64_t v, RecordBuilder& rec) { rec.U64(v); },
        [](RecordParser& rec) -> std::optional<uint64_t> {
          const uint64_t v = rec.U64();
          if (!rec.ok()) return std::nullopt;
          return v;
        });
  };
  (void)get();
  ASSERT_EQ(computes, 1);

  // Corrupt the entry on disk; a "restarted" process must recompute —
  // never serve the corrupt bytes — and heal the entry for the next one.
  const auto disk = MustOpen(root.path());
  const std::string path = disk->EntryPath("test_u64", 3);
  ASSERT_TRUE(WriteFileDurable(path, "scrambled").ok());
  StatCache::Instance().Clear();
  EXPECT_EQ(*get(), 777u);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(StatCache::Instance().TotalCounters().disk_misses, 1u);

  StatCache::Instance().Clear();
  EXPECT_EQ(*get(), 777u);  // healed: served from disk
  EXPECT_EQ(computes, 2);

  // A node-stats entry whose frame is intact but whose payload stops
  // after the degrees: the decoder refuses it, and the stats are
  // recomputed in one clean pass rather than served short.
  const Graph g = testing::CompleteGraph(9);
  const NodeStats expected = ComputeNodeStats(g);
  RecordBuilder degrees_only;
  EncodePodVector(degrees_only, expected.degrees);
  ASSERT_TRUE(disk->Store("node_stats",
                          CacheKey().Mix(g.ContentFingerprint()).digest(),
                          degrees_only.str())
                  .ok());
  StatCache::Instance().Clear();
  PassCounter passes;
  EXPECT_EQ(*CachedNodeStats(GraphView(g).WithPassCounter(&passes)), expected);
  EXPECT_EQ(passes.count("node_stats"), 1u);
}

TEST(StatCacheDiskTierTest, ADecoderShortReadIsADiskMissNotAWrongValue) {
  TempCacheRoot root("stat_cache_disk_short");
  ScopedCache cache;
  ASSERT_TRUE(StatCache::Instance().AttachDiskTier(root.path()).ok());

  // A valid cache FILE whose payload is one field short of what the
  // decoder expects (a foreign/older producer): the frame-level checks
  // all pass, so only the decode-layer validation stands between this
  // entry and a wrong hit.
  const auto disk = MustOpen(root.path());
  RecordBuilder half;
  half.U32(1);  // decoder below wants two U32s
  ASSERT_TRUE(disk->Store("test_pair", 6, half.str()).ok());

  int computes = 0;
  const auto value =
      StatCache::Instance().GetOrComputeDurable<std::pair<uint32_t, uint32_t>>(
          "test_pair", 6,
          [&] {
            ++computes;
            return std::make_pair(uint32_t{1}, uint32_t{2});
          },
          [](const std::pair<uint32_t, uint32_t>& v, RecordBuilder& rec) {
            rec.U32(v.first).U32(v.second);
          },
          [](RecordParser& rec) -> std::optional<std::pair<uint32_t, uint32_t>> {
            const uint32_t a = rec.U32();
            const uint32_t b = rec.U32();
            if (!rec.ok()) return std::nullopt;
            return std::make_pair(a, b);
          });
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(value->second, 2u);
  EXPECT_EQ(StatCache::Instance().TotalCounters().disk_misses, 1u);
}

TEST(StatCacheDiskTierTest, StoreFailureDegradesToComputeOnly) {
  TempCacheRoot root("stat_cache_disk_storefail");
  FaultInjectionEnv env;
  ScopedEnvOverride scope(&env);
  ScopedCache cache;
  ASSERT_TRUE(StatCache::Instance().AttachDiskTier(root.path()).ok());

  env.FailWrites(/*after=*/0, Status::ResourceExhausted("disk full"));
  const auto value = StatCache::Instance().GetOrComputeDurable<uint64_t>(
      "test_u64", 8, [] { return uint64_t{31}; },
      [](uint64_t v, RecordBuilder& rec) { rec.U64(v); },
      [](RecordParser& rec) -> std::optional<uint64_t> {
        const uint64_t v = rec.U64();
        if (!rec.ok()) return std::nullopt;
        return v;
      });
  // The caller still gets its value; only persistence was lost.
  EXPECT_EQ(*value, 31u);
  env.ClearFaults();
  EXPECT_EQ(MustOpen(root.path())->Load("test_u64", 8).status().code(),
            StatusCode::kNotFound);
}

StatCache::Counters DomainCounters(const std::string& domain) {
  for (const auto& [name, counters] : StatCache::Instance().DomainCounters()) {
    if (name == domain) return counters;
  }
  return {};
}

// The caller's next draws after `rng` has been through a computation.
std::pair<double, uint64_t> NextDraws(Rng& rng) {
  const double gaussian = rng.NextGaussian();  // reads the spare, if any
  return {gaussian, rng.NextU64()};
}

// Runs `cached` as a miss, a memory hit and (after a simulated restart)
// a disk hit in `domain`: each must return `uncached`'s value and leave
// the caller's rng where `uncached` left it.
template <typename Uncached, typename Cached>
void ExpectDrawsReplayed(const std::string& domain, Uncached&& uncached,
                         Cached&& cached) {
  SCOPED_TRACE(domain);
  Rng uncached_rng(42);
  const auto value = uncached(uncached_rng);
  const auto next = NextDraws(uncached_rng);

  TempCacheRoot root("stat_cache_disk_" + domain);
  ScopedCache cache;
  ASSERT_TRUE(StatCache::Instance().AttachDiskTier(root.path()).ok());
  using Counters = StatCache::Counters;
  const std::pair<const char*, uint64_t Counters::*> passes[] = {
      {"miss", &Counters::disk_misses},
      {"memory hit", &Counters::hits},
      {"disk hit", &Counters::disk_hits},
  };
  for (const auto& [pass, counter] : passes) {
    SCOPED_TRACE(pass);
    if (counter == &Counters::disk_hits) StatCache::Instance().Clear();
    Rng rng(42);
    EXPECT_EQ(cached(rng), value);
    EXPECT_EQ(NextDraws(rng), next);
    EXPECT_EQ(DomainCounters(domain).*counter, 1u);  // the pass it names
  }
}

// The sharpest durable contract: a value served from memory or DISK must
// leave the caller's rng exactly where the real computation left it, so
// every downstream draw in a warm process matches a cold one. KronFit
// and the statistics panels (Lanczos starts, ANF trials) both draw.
TEST(StatCacheDiskTierTest, KronFitWarmStartReplaysTheRngStream) {
  const Graph g = testing::CompleteGraph(32);
  KronFitOptions options;
  options.iterations = 2;
  const auto fit = [](const KronFitResult& result) {
    return std::make_tuple(result.theta.a, result.theta.b, result.theta.c,
                           result.log_likelihood, result.k);
  };
  ExpectDrawsReplayed(
      "kronfit", [&](Rng& rng) { return fit(FitKronFit(g, rng, options)); },
      [&](Rng& rng) { return fit(FitKronFitCached(g, rng, options)); });

  // Compute with the cache still disabled is the uncached reference.
  const ReleasePipeline pipeline;
  Rng sample_rng(5);
  const Graph sample = SampleSkg({0.9, 0.5, 0.2}, 8, sample_rng);
  const auto panels = [&](Rng& rng) { return pipeline.Compute(sample, rng); };
  ExpectDrawsReplayed("statistics", panels, panels);
}

// ------------------------------------------------- byte-budget eviction

TEST(StatCacheEvictionTest, OldestEntriesEvictToTheBudget) {
  ScopedCache cache;
  auto put = [&](uint64_t key) {
    return StatCache::Instance().GetOrCompute<std::vector<uint64_t>>(
        "test_vec", key, [&] { return std::vector<uint64_t>(128, key); });
  };
  StatCache::Instance().set_byte_budget(3000);  // fits ~2 of the ~1KiB values
  (void)put(1);
  (void)put(2);
  const uint64_t resident_two = StatCache::Instance().resident_bytes();
  EXPECT_GT(resident_two, 0u);
  EXPECT_LE(resident_two, 3000u);
  (void)put(3);  // pushes key 1 (oldest access) out
  EXPECT_LE(StatCache::Instance().resident_bytes(), 3000u);

  // Keys 2 and 3 are still resident (hits); key 1 recomputes (miss).
  const auto before = StatCache::Instance().TotalCounters();
  (void)put(3);
  (void)put(2);
  EXPECT_EQ(StatCache::Instance().TotalCounters().hits, before.hits + 2);
  (void)put(1);
  EXPECT_EQ(StatCache::Instance().TotalCounters().misses, before.misses + 1);

  // Raising the budget (or removing it) stops eviction.
  StatCache::Instance().set_byte_budget(0);
  (void)put(4);
  (void)put(5);
  const auto stable = StatCache::Instance().resident_bytes();
  (void)put(1);
  EXPECT_GT(StatCache::Instance().resident_bytes(), 0u);
  EXPECT_GE(StatCache::Instance().resident_bytes(), stable);
}

TEST(StatCacheEvictionTest, EvictedEntriesReloadFromDiskBitIdentically) {
  TempCacheRoot root("stat_cache_evict_disk");
  ScopedCache cache;
  ASSERT_TRUE(StatCache::Instance().AttachDiskTier(root.path()).ok());

  int computes = 0;
  auto get = [&](uint64_t key) {
    return StatCache::Instance().GetOrComputeDurable<std::vector<uint64_t>>(
        "test_vec", key,
        [&] {
          ++computes;
          return std::vector<uint64_t>(256, key);
        },
        [](const std::vector<uint64_t>& v, RecordBuilder& rec) {
          EncodePodVector(rec, v);
        },
        [](RecordParser& rec) -> std::optional<std::vector<uint64_t>> {
          std::vector<uint64_t> v;
          if (!DecodePodVector(rec, &v)) return std::nullopt;
          return v;
        });
  };
  // A budget that holds one ~2KiB value at a time: every get evicts the
  // previous key, so re-getting it exercises the disk reload path.
  StatCache::Instance().set_byte_budget(3000);
  const auto first = get(1);
  (void)get(2);  // evicts key 1 from memory; its bytes stay on disk
  ASSERT_EQ(computes, 2);
  const auto reloaded = get(1);
  EXPECT_EQ(computes, 2);  // reloaded, not recomputed
  EXPECT_EQ(*reloaded, *first);
  EXPECT_GE(StatCache::Instance().TotalCounters().disk_hits, 1u);
}

// ------------------------------------------- on-disk byte-budget tests

// Backdates an entry file so eviction order is deterministic regardless
// of filesystem timestamp granularity.
void AgeEntry(const std::string& path, int seconds_ago) {
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now() -
                std::chrono::seconds(seconds_ago));
}

TEST(DiskCacheByteBudgetTest, ZeroBudgetMeansUnbounded) {
  TempCacheRoot root("disk_budget_unbounded");
  const auto cache = MustOpen(root.path());  // default Options: budget 0
  for (uint64_t key = 0; key < 16; ++key) {
    ASSERT_TRUE(cache->Store("d", key, std::string(1024, 'x')).ok());
  }
  for (uint64_t key = 0; key < 16; ++key) {
    EXPECT_TRUE(cache->Load("d", key).ok()) << key;
  }
  EXPECT_GE(cache->EntryBytes(), 16u * 1024);
}

TEST(DiskCacheByteBudgetTest, OldestEntriesEvictFirstAfterAStore) {
  TempCacheRoot root("disk_budget_oldest");
  DiskCache::Options options;
  // Each entry is ~1KiB of payload plus framing; room for about three.
  options.byte_budget = 3600;
  auto opened = DiskCache::Open(root.path(), options);
  ASSERT_TRUE(opened.ok());
  const auto& cache = opened.value();

  const std::string value(1024, 'v');
  ASSERT_TRUE(cache->Store("d", 1, value).ok());
  AgeEntry(cache->EntryPath("d", 1), 40);  // oldest
  ASSERT_TRUE(cache->Store("d", 2, value).ok());
  AgeEntry(cache->EntryPath("d", 2), 30);
  ASSERT_TRUE(cache->Store("d", 3, value).ok());
  AgeEntry(cache->EntryPath("d", 3), 20);
  EXPECT_TRUE(cache->Load("d", 1).ok());  // all three fit

  // The fourth store pushes the total over budget: key 1 (oldest) goes,
  // the newer entries and the just-stored one stay.
  ASSERT_TRUE(cache->Store("d", 4, value).ok());
  EXPECT_EQ(cache->Load("d", 1).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(cache->Load("d", 2).ok());
  EXPECT_TRUE(cache->Load("d", 3).ok());
  EXPECT_TRUE(cache->Load("d", 4).ok());
  EXPECT_LE(cache->EntryBytes(), options.byte_budget);
}

TEST(DiskCacheByteBudgetTest, TheJustStoredEntrySurvivesEvenAloneOverBudget) {
  TempCacheRoot root("disk_budget_keep");
  DiskCache::Options options;
  options.byte_budget = 64;  // smaller than any framed entry
  auto opened = DiskCache::Open(root.path(), options);
  ASSERT_TRUE(opened.ok());
  const auto& cache = opened.value();

  ASSERT_TRUE(cache->Store("d", 1, std::string(512, 'a')).ok());
  AgeEntry(cache->EntryPath("d", 1), 10);
  ASSERT_TRUE(cache->Store("d", 2, std::string(512, 'b')).ok());
  // Entry 1 was evictable; entry 2 is the store that triggered the pass
  // and is pinned — a budget too small for one entry must not turn
  // Store into a self-defeating write-then-unlink.
  EXPECT_EQ(cache->Load("d", 1).status().code(), StatusCode::kNotFound);
  auto kept = cache->Load("d", 2);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(kept.value(), std::string(512, 'b'));
}

TEST(DiskCacheByteBudgetTest, ALiveLockSidecarPinsItsEntry) {
  TempCacheRoot root("disk_budget_lock");
  DiskCache::Options options;
  options.byte_budget = 1500;  // room for one entry, not two
  auto opened = DiskCache::Open(root.path(), options);
  ASSERT_TRUE(opened.ok());
  const auto& cache = opened.value();

  const std::string value(1024, 'v');
  ASSERT_TRUE(cache->Store("d", 1, value).ok());
  AgeEntry(cache->EntryPath("d", 1), 60);
  // A loser of the claim race may be polling to adopt entry 1: its live
  // .lock sidecar pins the entry through an over-budget store...
  { std::ofstream(cache->EntryPath("d", 1) + ".lock"); }
  ASSERT_TRUE(cache->Store("d", 2, value).ok());
  EXPECT_TRUE(cache->Load("d", 1).ok());
  EXPECT_TRUE(cache->Load("d", 2).ok());

  // ...and once the lock releases, the next store evicts it normally.
  std::filesystem::remove(cache->EntryPath("d", 1) + ".lock");
  ASSERT_TRUE(cache->Store("d", 3, value).ok());
  EXPECT_EQ(cache->Load("d", 1).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(cache->Load("d", 3).ok());
}

TEST(DiskCacheByteBudgetTest, EvictionOnlyTouchesDpkcEntries) {
  TempCacheRoot root("disk_budget_foreign");
  DiskCache::Options options;
  options.byte_budget = 1500;
  auto opened = DiskCache::Open(root.path(), options);
  ASSERT_TRUE(opened.ok());
  const auto& cache = opened.value();

  // A foreign file sharing the root (a README, a stray journal) is
  // neither counted against the budget nor ever deleted.
  const std::string foreign = root.path() + "/README.txt";
  { std::ofstream(foreign) << std::string(4096, 'f'); }
  ASSERT_TRUE(cache->Store("d", 1, std::string(256, 'v')).ok());
  EXPECT_TRUE(cache->Load("d", 1).ok());
  EXPECT_TRUE(std::filesystem::exists(foreign));
  EXPECT_LT(cache->EntryBytes(), 4096u);  // the README isn't an entry
}

}  // namespace
}  // namespace dpkron
