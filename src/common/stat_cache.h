// StatCache — a process-wide, content-addressed memo for the expensive
// deterministic quantities an ε/seed sweep recomputes otherwise: per-node
// degree and triangle counts (graph/node_stats.h), TriangleSensitivity-
// Profiles, KronFit/KronMom fits, statistics panels, expected-statistic
// tables and loaded graphs. A 5-ε sweep computes each of them once
// instead of once per ε.
//
// Keying. Entries live in named *domains* (one per computation kind,
// e.g. "kronfit", "triangle_profile") and are addressed by a 64-bit
// FNV-1a digest built with CacheKey over every input the computation is
// a function of: the graph's content fingerprint (identical to its
// .dpkb checksum — see Graph::ContentFingerprint), the computation's
// parameters, and — for randomized computations — the Rng's
// StateFingerprint. Because every cached computation is a pure function
// of its key, a hit is bit-identical to a recomputation, which is what
// keeps cached scenario output byte-identical to the uncached path
// (tests/stat_cache_test.cc enforces it).
//
// Entry points. A durable domain is declared once, beside the function
// it memoizes, as a CacheDomain: name, record layout and value codec.
// Memoize(domain, key, fn) mixes the layout into the key. MemoizeDraws
// (domain, key, rng, fn) serves randomized computations: it also mixes
// in the Rng's StateFingerprint, stores the Rng::State the stream
// reached after the value's fields, and restores it into `rng` on every
// call — so the caller's stream advances exactly as if the work had
// re-run. With the cache disabled both are a plain call of `fn`.
//
// Tiers. The in-memory memo is tier 0. A driver may additionally attach
// a persistent DISK tier (AttachDiskTier → common/disk_cache.h): the
// owner of an in-memory miss in a CacheDomain then reads through to the
// shared on-disk store before computing, and writes behind after. Disk
// entries carry the same (domain, key) content address, so the
// bit-identical-on-hit contract — including Rng stream restoration —
// holds across process boundaries: a warm dpkrond restart, a repeated
// CLI run and the shards of a multi-process sweep all serve the exact
// bytes a cold compute would produce. Keys cannot see code: a change to
// a domain's output for fixed inputs or to its record bumps its `layout`,
// or a warm disk tier keeps serving the old values.
//
// Concurrency. The cache is shared by all threads (the sweep engine runs
// the run matrix over the thread pool). A miss registers an in-flight
// entry before computing, so concurrent requests for the same key wait
// on the first computation instead of duplicating it; waiting is
// deadlock-free because the compute-dependency graph is a shallow DAG
// (composite entries depend only on leaf entries, which wait on nothing).
// Cross-PROCESS misses on one disk store are single-flighted with the
// sidecar cache's advisory O_EXCL lock protocol (see DiskEntryClaim).
//
// The cache is DISABLED by default: library callers and the test suite
// see plain recomputation unless a driver (dpkron_experiments, RunSweep,
// dpkrond) opts in with set_enabled(true). Memory is bounded by an
// optional byte budget (set_byte_budget): when the resident footprint
// exceeds it, fulfilled entries are evicted oldest-access-first — coarse
// LRU, safe because an evicted key either recomputes or (with a disk
// tier) reloads bit-identically. The default budget of 0 keeps the
// pre-budget behavior (no eviction; Clear() between batches releases
// everything).

#ifndef DPKRON_COMMON_STAT_CACHE_H_
#define DPKRON_COMMON_STAT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/disk_cache.h"
#include "src/common/fnv.h"
#include "src/common/journal.h"
#include "src/common/macros.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace dpkron {

// Accumulates an FNV-1a digest over the typed fields of a cache key.
// Field order matters (by design: keys are positional, like a struct).
class CacheKey {
 public:
  CacheKey& Mix(uint64_t value) {
    hash_ = Fnv1a64(&value, sizeof(value), hash_);
    return *this;
  }
  CacheKey& MixDouble(double value) {
    // Bit pattern, not value: -0.0 and 0.0 key differently, NaNs key
    // stably — the same criterion GraphStatistics equality uses.
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    return Mix(bits);
  }
  CacheKey& MixBytes(const void* data, size_t len) {
    hash_ = Fnv1a64(&len, sizeof(len), hash_);  // length-prefixed
    hash_ = Fnv1a64(data, len, hash_);
    return *this;
  }

  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = kFnv1aOffsetBasis;
};

// Coarse resident footprint of a cached value, for the byte-budget cap:
// exact for flat PODs and POD vectors. Cached types that own containers
// provide a non-template overload next to their definition (found by
// ADL at the GetOrCompute call — see GraphStatistics in core/release.h).
template <typename T>
inline size_t ApproxCacheBytes(const T&) {
  return sizeof(T);
}
template <typename T>
inline size_t ApproxCacheBytes(const std::vector<T>& values) {
  return sizeof(values) + values.capacity() * sizeof(T);
}

// A memoized outcome: an error is as much a function of the key as a
// value is.
template <typename T>
inline size_t ApproxCacheBytes(const Result<T>& result) {
  return result.ok() ? ApproxCacheBytes(result.value()) : sizeof(result);
}

// A durable StatCache domain: the name of its entries and counters, the
// record layout mixed into every key (bump it when the output for fixed
// inputs or the record's fields change) and the value codec. `decode`
// returns nullopt on a foreign or short record: a disk miss.
template <typename T>
struct CacheDomain {
  const char* name;
  uint64_t layout;
  void (*encode)(const T& value, RecordBuilder& rec);
  std::optional<T> (*decode)(RecordParser& rec);
};

// A MemoizeDraws entry: the value and the Rng::State its stream reached.
template <typename T>
struct CachedDraws {
  T value;
  Rng::State end_state;
};

template <typename T>
inline size_t ApproxCacheBytes(const CachedDraws<T>& entry) {
  return ApproxCacheBytes(entry.value) + sizeof(entry.end_state);
}

class StatCache {
 public:
  struct Counters {
    uint64_t hits = 0;    // in-memory memo hits
    uint64_t misses = 0;  // in-memory memo misses (owner computed or read disk)
    // Of the in-memory misses in a durable domain with a disk tier
    // attached: how many were served warm from disk vs computed cold.
    uint64_t disk_hits = 0;
    uint64_t disk_misses = 0;
  };

  // The one process-wide instance.
  static StatCache& Instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // Attaches the persistent tier rooted at `root` (created if needed).
  // Replaces any previously attached tier; in-flight computations keep
  // using the tier they started with.
  Status AttachDiskTier(const std::string& root,
                        const DiskCache::Options& options = DiskCache::Options());
  void DetachDiskTier();
  bool disk_attached() const;
  std::string disk_root() const;  // "" when detached

  // Caps the resident in-memory footprint (sum of ApproxCacheBytes over
  // fulfilled entries). 0 = unbounded (the default). Shrinking below the
  // current footprint evicts immediately.
  void set_byte_budget(uint64_t bytes);
  uint64_t byte_budget() const;
  uint64_t resident_bytes() const;

  // The memoized value for (domain, key), computing it with `fn` on the
  // first request. `fn` must be a pure function of the key's inputs
  // (that is the cache contract — see file comment) and must not throw:
  // the codebase is exception-free by policy, and an unwinding compute
  // would otherwise leave a forever-pending in-flight entry that every
  // waiter and future lookup blocks on — so an unwind is converted into
  // the standard precondition abort instead. When the cache is disabled
  // this is a transparent passthrough: `fn` runs every time and no
  // counter moves.
  template <typename T, typename Fn>
  std::shared_ptr<const T> GetOrCompute(const char* domain, uint64_t key,
                                        Fn&& fn) {
    return GetOrComputeDurable<T>(domain, key, std::forward<Fn>(fn),
                                  NoCodec{}, NoCodec{});
  }

  // GetOrCompute with a value codec (see CacheDomain; production code
  // calls it through Memoize/MemoizeDraws). With a disk tier attached,
  // the owner of an in-memory miss first tries the on-disk entry (a warm
  // process-crossing hit — decoded bytes are the exact bytes a recompute
  // would produce, the codec round-trip contract tests/disk_cache_test.cc
  // enforces) and writes the computed value behind on a cold miss.
  // Without a disk tier this is exactly GetOrCompute.
  template <typename T, typename Fn, typename Encode, typename Decode>
  std::shared_ptr<const T> GetOrComputeDurable(const char* domain,
                                               uint64_t key, Fn&& fn,
                                               Encode&& encode,
                                               Decode&& decode) {
    if (!enabled()) return std::make_shared<const T>(fn());
    std::promise<std::shared_ptr<const void>> promise;
    const Lookup lookup =
        LookupOrRegister(domain, key, promise.get_future().share());
    if (!lookup.owner) {
      return std::static_pointer_cast<const T>(lookup.future.get());
    }
    FulfillGuard guard;
    std::shared_ptr<const T> value;
    if constexpr (!std::is_same_v<std::decay_t<Encode>, NoCodec>) {
      if (const std::shared_ptr<const DiskCache> disk = disk_tier()) {
        DiskEntryClaim claim(disk.get(), domain, key);
        std::string bytes;
        if (claim.TryLoad(&bytes)) {
          RecordParser rec(bytes);
          std::optional<T> decoded = decode(rec);
          if (decoded.has_value() && rec.done()) {
            value = std::make_shared<const T>(std::move(*decoded));
          }
        }
        RecordDiskOutcome(domain, /*hit=*/value != nullptr);
        if (value == nullptr) {
          value = std::make_shared<const T>(fn());
          RecordBuilder rec;
          encode(*value, rec);
          claim.Store(rec.str());
        }
      }
    }
    if (value == nullptr) value = std::make_shared<const T>(fn());
    FinalizeEntry(domain, key, ApproxCacheBytes(*value));
    guard.fulfilled = true;
    promise.set_value(value);
    return value;
  }

  // GetOrComputeDurable in `domain`, keyed by `key` and its layout.
  template <typename T, typename Fn>
  std::shared_ptr<const T> Memoize(const CacheDomain<T>& domain, CacheKey key,
                                   Fn&& fn) {
    return GetOrComputeDurable<T>(domain.name, key.Mix(domain.layout).digest(),
                                  std::forward<Fn>(fn), domain.encode,
                                  domain.decode);
  }

  // Memoize for a computation that draws from `rng`, also keyed by rng's
  // state: `rng` ends where the computation left it, whether it ran, hit
  // memory or hit disk.
  template <typename T, typename Fn>
  std::shared_ptr<const T> MemoizeDraws(const CacheDomain<T>& domain,
                                        CacheKey key, Rng& rng, Fn&& fn) {
    key.Mix(domain.layout).Mix(rng.StateFingerprint());
    const auto entry = GetOrComputeDurable<CachedDraws<T>>(
        domain.name, key.digest(),
        // Braced initialization runs fn() before SaveState().
        [&] { return CachedDraws<T>{fn(), rng.SaveState()}; },
        [&domain](const CachedDraws<T>& e, RecordBuilder& rec) {
          domain.encode(e.value, rec);
          EncodeRngState(rec, e.end_state);
        },
        [&domain](RecordParser& rec) -> std::optional<CachedDraws<T>> {
          std::optional<T> value = domain.decode(rec);
          Rng::State state{};
          if (!value || !DecodeRngState(rec, &state)) return std::nullopt;
          return CachedDraws<T>{std::move(*value), state};
        });
    rng.RestoreState(entry->end_state);
    return std::shared_ptr<const T>(entry, &entry->value);
  }

  // Drops every entry and zeroes all counters.
  void Clear();

  // Hit/miss totals across all domains.
  Counters TotalCounters() const;

  // Per-domain counters, sorted by domain name (stable JSON output).
  std::vector<std::pair<std::string, Counters>> DomainCounters() const;

 private:
  struct Lookup {
    std::shared_future<std::shared_ptr<const void>> future;
    bool owner = false;  // true: the caller must compute and fulfill
  };
  struct Entry {
    std::shared_future<std::shared_ptr<const void>> future;
    size_t bytes = 0;    // 0 = still in flight; >= 1 once fulfilled
    uint64_t tick = 0;   // last-access stamp, orders eviction
  };
  struct Domain {
    std::unordered_map<uint64_t, Entry> entries;
    Counters counters;
  };
  // The codec of an in-memory-only domain (GetOrCompute).
  struct NoCodec {};
  struct FulfillGuard {
    bool fulfilled = false;
    ~FulfillGuard() {
      DPKRON_CHECK_MSG(fulfilled, "StatCache compute function must not throw");
    }
  };

  StatCache() = default;

  Lookup LookupOrRegister(
      const char* domain, uint64_t key,
      std::shared_future<std::shared_ptr<const void>> candidate);
  // Marks (domain, key) fulfilled at `bytes` resident bytes and evicts
  // if the budget is now exceeded. A no-op if the entry was dropped
  // (Clear/eviction race) meanwhile.
  void FinalizeEntry(const char* domain, uint64_t key, size_t bytes);
  void RecordDiskOutcome(const char* domain, bool hit);
  std::shared_ptr<const DiskCache> disk_tier() const;
  // Evicts fulfilled entries oldest-tick-first until within budget.
  // Call with mu_ held.
  void EvictToBudgetLocked();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, Domain> domains_;
  std::shared_ptr<const DiskCache> disk_;
  uint64_t byte_budget_ = 0;   // 0 = unbounded
  uint64_t resident_bytes_ = 0;
  uint64_t tick_ = 0;
};

}  // namespace dpkron

#endif  // DPKRON_COMMON_STAT_CACHE_H_
