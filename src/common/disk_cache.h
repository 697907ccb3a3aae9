// DiskCache — the persistent tier under the process-wide StatCache.
//
// The in-memory memo dies with the process; this layer keeps the
// durable domains (the CacheDomains of common/stat_cache.h: node stats,
// sensitivity profiles, fits, panels and degree releases with their
// saved Rng::State, generated graphs) on disk so repeated CLI runs, CI
// jobs, dpkrond restarts and the shards of a multi-process sweep all
// warm-start from the same store.
//
// Layout: one file per entry under a cache root,
//
//   <root>/<domain>-<16-hex-key>.dpkc
//
// where the key is exactly the in-memory memo's 64-bit (domain, CacheKey)
// digest — a content fingerprint of every input the computation is a
// function of, plus the domain's record layout. A changed input IS a
// different key, and the old entry simply stops being addressed. A key
// cannot see code, so a change that alters a domain's output for fixed
// inputs must bump the domain's `layout` (CacheDomain), or warm entries
// keep serving the old values.
//
// Entry format: one journal-framed record ([u32 len][u64 fnv1a_words]
// [payload] — the .dpkb/journal framing) whose payload is
//
//   RecordBuilder: U64 kDiskCacheMagic · U32 format version ·
//                  Str domain · U64 key · Str value bytes
//
// so a reader verifies length, checksum, magic, version and that the
// entry really is the (domain, key) the filename claims before a single
// value byte is trusted. Writes go through WriteFileDurable (unique temp
// → fsync → rename → dir fsync), so a reader can never observe a torn
// entry under crash-free operation, and ANY validation failure — torn
// tail after a crash, bit rot, a future format — degrades to a clean
// miss + recompute + rewrite, never a wrong hit (tests fault-inject all
// of these paths).
//
// Concurrency: entries are immutable once written and the rename is
// atomic, so concurrent readers and writers need no coordination for
// correctness — two processes racing on a cold key would merely both
// compute the same bytes. DiskEntryClaim runs the FileClaim lock
// protocol (file_claim.h, shared with the .dpkb sidecar cache) on top so
// they usually don't: the loser polls for the winner's entry and adopts
// it; a lock older than Options::lock.stale_ms is presumed orphaned and
// broken. Every failure mode of the lock protocol degrades to an
// uncoordinated (duplicated, never wrong) compute.

#ifndef DPKRON_COMMON_DISK_CACHE_H_
#define DPKRON_COMMON_DISK_CACHE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/file_claim.h"
#include "src/common/journal.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace dpkron {

class DiskCache {
 public:
  struct Options {
    // Advisory-lock protocol for cold-key races (see DiskEntryClaim):
    // a loser polls every lock.poll_ms for the winner's entry; a lock
    // older than lock.stale_ms is presumed orphaned and broken.
    LockOptions lock;
    // Cap on the total bytes of .dpkc entries under the root
    // (0 = unbounded). Enforced after each Store: oldest-mtime entries
    // are unlinked until the cache fits. Entries with a live ".lock"
    // sidecar (an in-flight DiskEntryClaim) and the entry just stored
    // are pinned, so the cache may transiently exceed the budget by the
    // pinned bytes. Eviction is best-effort, like every other disk-tier
    // failure mode: an unevictable cache is merely larger than asked,
    // never wrong — entries are content-addressed, so deleting any
    // subset only converts future hits into recomputes.
    uint64_t byte_budget = 0;
  };

  // Opens (creating if needed) a cache rooted at `root`. Fails only if
  // the root cannot be created — a cache with unreadable entries still
  // opens and serves misses.
  static Result<std::unique_ptr<DiskCache>> Open(const std::string& root,
                                                 const Options& options);
  static Result<std::unique_ptr<DiskCache>> Open(const std::string& root) {
    return Open(root, Options());
  }

  const std::string& root() const { return root_; }
  const Options& options() const { return options_; }

  // <root>/<domain>-<16-hex-key>.dpkc
  std::string EntryPath(const char* domain, uint64_t key) const;

  // The validated value bytes for (domain, key). kNotFound on a miss; a
  // present-but-invalid entry (torn, corrupt, foreign version, filename
  // collision) is also kNotFound — after a best-effort unlink so the
  // rewrite is not blocked by the corpse.
  Result<std::string> Load(const char* domain, uint64_t key) const;

  // Durably installs `value_bytes` for (domain, key), then enforces
  // Options::byte_budget. Best-effort in spirit: callers treat failure
  // as "the next process recomputes".
  Status Store(const char* domain, uint64_t key,
               std::string_view value_bytes) const;

  // Total bytes of .dpkc entries currently under the root (a live
  // directory scan; used by tests and the budget enforcement).
  uint64_t EntryBytes() const;

 private:
  // Oldest-mtime-first eviction down to byte_budget, sparing locked
  // entries and `keep_path` (the entry whose Store triggered the pass).
  void EnforceByteBudget(const std::string& keep_path) const;

  DiskCache(std::string root, const Options& options)
      : root_(std::move(root)), options_(options) {}

  const std::string root_;
  const Options options_;
};

// The read-or-compute protocol for one (domain, key): try the entry,
// and on a miss coordinate with other processes via the advisory lock so
// one of them computes while the rest adopt its result.
//
//   DiskEntryClaim claim(cache, domain, key);   // cache may be null
//   std::string bytes;
//   if (claim.TryLoad(&bytes)) { ...decode bytes... }
//   else { ...compute...; claim.Store(encoded); }
//
// With a null cache TryLoad is an immediate miss and Store a no-op, so
// call sites need no disk-attached branch. The destructor releases the
// lock if Store was never reached (compute failed / value not
// serializable after all).
class DiskEntryClaim {
 public:
  DiskEntryClaim(const DiskCache* cache, const char* domain, uint64_t key);

  DiskEntryClaim(const DiskEntryClaim&) = delete;
  DiskEntryClaim& operator=(const DiskEntryClaim&) = delete;

  // True + the validated value bytes on a hit. On a cold key this is
  // where the cross-process wait happens: if another process holds the
  // entry lock, poll until its entry appears (adopt it), the lock is
  // released without an entry (claim it and report a miss), or the lock
  // goes stale (break it and report a miss).
  bool TryLoad(std::string* value_bytes);

  // Persists the computed value and releases the lock. Failures degrade
  // to a warning on stderr; the in-memory value is already correct.
  void Store(std::string_view value_bytes);

 private:
  const DiskCache* const cache_;  // null = disk tier not attached
  const char* const domain_;
  const uint64_t key_;
  FileClaim claim_;  // "<entry>.lock"
};

// ------------------------------------------------- value codec helpers
//
// Call sites serialize their cached values with RecordBuilder /
// RecordParser (journal.h); these cover the one recurring shape — flat
// POD vectors (degrees, triangle counts, frontier pairs, panel series,
// CSR arrays) — as a single length-checked byte field.

// "POD" here admits std::pair (not trivially copyable only because its
// assignment operator is user-provided): trivially copy-constructible +
// trivially destructible is what memcpy round-tripping actually needs.
template <typename T>
inline constexpr bool kIsPodVectorElement =
    std::is_trivially_copy_constructible_v<T> &&
    std::is_trivially_destructible_v<T>;

template <typename T>
void EncodePodVector(RecordBuilder& rec, std::span<const T> values) {
  static_assert(kIsPodVectorElement<T>);
  rec.Str(std::string_view(reinterpret_cast<const char*>(values.data()),
                           values.size_bytes()));
}

template <typename T, typename Alloc>
void EncodePodVector(RecordBuilder& rec, const std::vector<T, Alloc>& values) {
  EncodePodVector(rec, std::span<const T>(values));
}

template <typename T, typename Alloc>
bool DecodePodVector(RecordParser& rec, std::vector<T, Alloc>* values) {
  static_assert(kIsPodVectorElement<T>);
  const std::string bytes = rec.Str();
  if (!rec.ok() || bytes.size() % sizeof(T) != 0) return false;
  values->resize(bytes.size() / sizeof(T));
  if (!bytes.empty()) std::memcpy(values->data(), bytes.data(), bytes.size());
  return true;
}

// The Rng::State a randomized computation's entry carries so a hit can
// replay the stream advance (field-wise, not raw struct bytes — padding
// must never reach the checksummed file).
inline void EncodeRngState(RecordBuilder& rec, const Rng::State& state) {
  for (uint64_t word : state.s) rec.U64(word);
  rec.U32(state.have_gaussian ? 1 : 0);
  rec.Double(state.spare_gaussian);
}

inline bool DecodeRngState(RecordParser& rec, Rng::State* state) {
  for (uint64_t& word : state->s) word = rec.U64();
  state->have_gaussian = rec.U32() != 0;
  state->spare_gaussian = rec.Double();
  return rec.ok();
}

}  // namespace dpkron

#endif  // DPKRON_COMMON_DISK_CACHE_H_
