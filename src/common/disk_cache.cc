#include "src/common/disk_cache.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "src/common/env.h"
#include "src/common/fnv.h"

namespace dpkron {
namespace {

// "DPKCACH1" as a little-endian u64 — the entry-payload magic.
constexpr uint64_t kDiskCacheMagic = 0x3148434143'4b5044ull;
// Bump whenever any domain's value encoding changes: old entries then
// fail validation and degrade to misses instead of decoding garbage.
constexpr uint32_t kDiskCacheFormatVersion = 1;

// Creates `path` and any missing ancestors, one level at a time.
// Idempotent; returns the first hard failure.
Status CreateDirRecursive(const std::string& path, Env* env) {
  Status status;
  for (size_t slash = path.find('/', 1); slash != std::string::npos;
       slash = path.find('/', slash + 1)) {
    if (slash == 0) continue;
    status = env->CreateDir(path.substr(0, slash));
    if (!status.ok()) return status;
  }
  return env->CreateDir(path);
}

}  // namespace

Result<std::unique_ptr<DiskCache>> DiskCache::Open(const std::string& root,
                                                   const Options& options) {
  if (root.empty()) {
    return Status::InvalidArgument("disk cache root must be non-empty");
  }
  std::string normalized = root;
  while (normalized.size() > 1 && normalized.back() == '/') {
    normalized.pop_back();
  }
  const Status created = CreateDirRecursive(normalized, GetEnv());
  if (!created.ok()) return created;
  return std::unique_ptr<DiskCache>(
      new DiskCache(std::move(normalized), options));
}

std::string DiskCache::EntryPath(const char* domain, uint64_t key) const {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(key));
  return root_ + "/" + domain + "-" + hex + ".dpkc";
}

Result<std::string> DiskCache::Load(const char* domain, uint64_t key) const {
  const std::string path = EntryPath(domain, key);
  Env* env = GetEnv();
  // The entry is exactly one framed record; reuse the journal reader so
  // torn tails and checksum failures are detected by the same code the
  // checkpoint/ledger recovery paths already trust. A missing file is
  // the common miss; any other read error (EIO, injected fault) is
  // indistinguishable from "no usable entry" for a cache.
  auto read = ReadJournal(path);
  if (!read.ok() && read.status().code() == StatusCode::kNotFound) {
    return Status::NotFound(path + ": no disk cache entry");
  }
  const bool framed = read.ok() && read.value().records.size() == 1 &&
                      !read.value().truncated_tail;
  std::string value_bytes;
  bool valid = false;
  if (framed) {
    RecordParser rec(read.value().records.front());
    const uint64_t magic = rec.U64();
    const uint32_t version = rec.U32();
    const std::string recorded_domain = rec.Str();
    const uint64_t recorded_key = rec.U64();
    value_bytes = rec.Str();
    valid = rec.done() && magic == kDiskCacheMagic &&
            version == kDiskCacheFormatVersion && recorded_domain == domain &&
            recorded_key == key;
  }
  if (!valid) {
    // Torn, corrupt, foreign-format or mis-filed: a clean miss. Unlink
    // the corpse (best-effort) so the recompute's Store reinstalls a
    // good entry even if rename-over-existing is ever restricted.
    (void)env->RemoveFile(path);
    return Status::NotFound(path + ": invalid disk cache entry");
  }
  return value_bytes;
}

Status DiskCache::Store(const char* domain, uint64_t key,
                        std::string_view value_bytes) const {
  const std::string payload = RecordBuilder()
                                  .U64(kDiskCacheMagic)
                                  .U32(kDiskCacheFormatVersion)
                                  .Str(domain)
                                  .U64(key)
                                  .Str(value_bytes)
                                  .str();
  std::string image;
  AppendFramedRecord(&image, payload);
  const std::string path = EntryPath(domain, key);
  const Status written = WriteFileDurable(path, image);
  if (written.ok()) EnforceByteBudget(path);
  return written;
}

namespace {

// One .dpkc entry as the eviction pass sees it.
struct EntryFile {
  std::string path;
  uint64_t size = 0;
  std::filesystem::file_time_type mtime;
};

// Scans the root for .dpkc entries; stat failures (an entry evicted or
// adopted by a concurrent process mid-scan) drop the entry from the
// listing rather than failing the pass.
std::vector<EntryFile> ListEntries(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<EntryFile> entries;
  std::error_code ec;
  fs::directory_iterator it(root, ec), end;
  for (; !ec && it != end; it.increment(ec)) {
    if (it->path().extension() != ".dpkc") continue;
    std::error_code size_ec, mtime_ec;
    EntryFile entry;
    entry.path = it->path().string();
    entry.size = it->file_size(size_ec);
    entry.mtime = it->last_write_time(mtime_ec);
    if (size_ec || mtime_ec) continue;
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace

uint64_t DiskCache::EntryBytes() const {
  uint64_t total = 0;
  for (const EntryFile& entry : ListEntries(root_)) total += entry.size;
  return total;
}

void DiskCache::EnforceByteBudget(const std::string& keep_path) const {
  if (options_.byte_budget == 0) return;
  std::vector<EntryFile> entries = ListEntries(root_);
  uint64_t total = 0;
  for (const EntryFile& entry : entries) total += entry.size;
  if (total <= options_.byte_budget) return;
  // Oldest first; path as the tie-break so concurrent enforcers walk the
  // same order instead of each deleting a different same-age entry.
  std::sort(entries.begin(), entries.end(),
            [](const EntryFile& a, const EntryFile& b) {
              return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
            });
  Env* env = GetEnv();
  for (const EntryFile& entry : entries) {
    if (total <= options_.byte_budget) break;
    if (entry.path == keep_path) continue;
    // A live ".lock" sidecar marks an in-flight DiskEntryClaim (a loser
    // may be polling to adopt this entry): pinned.
    std::error_code lock_ec;
    if (std::filesystem::exists(entry.path + ".lock", lock_ec)) continue;
    if (env->RemoveFile(entry.path).ok()) total -= entry.size;
  }
}

// ------------------------------------------------------ DiskEntryClaim

DiskEntryClaim::DiskEntryClaim(const DiskCache* cache, const char* domain,
                               uint64_t key)
    : cache_(cache),
      domain_(domain),
      key_(key),
      claim_(cache == nullptr ? std::string()
                              : cache->EntryPath(domain, key) + ".lock") {}

bool DiskEntryClaim::TryLoad(std::string* value_bytes) {
  if (cache_ == nullptr) return false;
  // A cold key elects a computer: the winner returns false holding the
  // lock; a loser adopts the winner's entry mid-wait. Every failure of the
  // protocol itself degrades to an uncoordinated compute — duplicated
  // work with byte-identical results (the cache contract), never a
  // wrong value.
  return claim_.LoadOrClaim(cache_->options().lock, [&] {
    auto loaded = cache_->Load(domain_, key_);
    if (!loaded.ok()) return false;
    *value_bytes = std::move(loaded).value();
    return true;
  });
}

void DiskEntryClaim::Store(std::string_view value_bytes) {
  if (cache_ == nullptr) return;
  const Status stored = cache_->Store(domain_, key_, value_bytes);
  if (!stored.ok()) {
    // Best-effort tier: the in-memory value is already correct, the
    // next process recomputes. Same posture as the sidecar-cache write.
    std::fprintf(stderr,
                 "# warning: disk cache write failed (%s); entry %s will be "
                 "recomputed next process\n",
                 stored.ToString().c_str(),
                 cache_->EntryPath(domain_, key_).c_str());
  }
  claim_.Release();
}

}  // namespace dpkron
