// Env — the one audited seam between dpkron and the filesystem.
//
// Every durability-critical write in the system (the `.dpkb` sidecar
// cache, the accountant's spend journal, sweep checkpoints, BENCH_*.json
// artifacts) goes through this interface instead of raw stdio/iostream,
// for two reasons:
//
//   1. Durability is a protocol, not a call: crash-safe output is
//      write-temp → Sync() → rename → SyncDir(), in that order. With one
//      seam the protocol lives in one place (WriteFileDurable /
//      JournalWriter) instead of being re-derived — usually wrongly — at
//      each call site.
//   2. Failure paths are untestable through the raw filesystem. The
//      FaultInjectionEnv test double below makes short writes, EIO,
//      ENOSPC, failed renames and kill−9-style crashes (loss of every
//      un-synced byte) injectable deterministically, so the recovery
//      code in the accountant, the sidecar cache and the sweep engine is
//      exercised by ordinary unit tests.
//
// The active Env is process-global (GetEnv), defaulting to the real
// POSIX filesystem; tests swap in a double with ScopedEnvOverride.
// Threading a per-call Env* through every API was rejected: the graph
// loaders are called from deep inside scenario bodies, and the global is
// read-mostly (an acquire load) on hot paths.

#ifndef DPKRON_COMMON_ENV_H_
#define DPKRON_COMMON_ENV_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace dpkron {

// A file opened for writing. Append() may buffer; bytes are guaranteed
// on stable storage only after a successful Sync(). Close() flushes to
// the OS but does NOT sync — data can still be lost to a crash.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const void* data, size_t len) = 0;
  Status Append(std::string_view data) {
    return Append(data.data(), data.size());
  }
  // Flushes application buffers and fsyncs the file.
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  // The real POSIX filesystem. Never null; one process-wide instance.
  static Env* Default();

  // Creates (or truncates) `path` for writing.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;
  // Opens `path` for appending, creating it if absent.
  virtual Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) = 0;
  // Creates `path` if and only if it does not already exist (O_EXCL):
  // the atomic test-and-set that backs cross-process lock files. An
  // existing file yields kFailedPrecondition; other failures map as in
  // ErrnoStatus.
  virtual Result<std::unique_ptr<WritableFile>> NewExclusiveFile(
      const std::string& path) = 0;

  virtual Result<std::string> ReadFileToString(const std::string& path) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;

  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;
  // Creates one directory level. An already-existing directory is OK
  // (idempotent) — callers that need create-exclusive semantics use
  // NewExclusiveFile lock files, never directories.
  virtual Status CreateDir(const std::string& path) = 0;
  // fsyncs the directory containing `path_in_dir` — the step that makes
  // a just-renamed file survive a crash of the directory's metadata.
  virtual Status SyncDir(const std::string& path_in_dir) = 0;
};

// The active environment (Env::Default() unless a test overrode it).
Env* GetEnv();

// errno → Status, shared by every POSIX-facing layer (filesystem above,
// sockets in src/server/). ENOENT → kNotFound; ENOSPC / EDQUOT →
// kResourceExhausted; ETIMEDOUT → kDeadlineExceeded; EAGAIN /
// EWOULDBLOCK / ECONNRESET / ECONNREFUSED / EPIPE → kUnavailable
// (transient, retryable); EEXIST → kFailedPrecondition (the O_EXCL
// "somebody else holds the lock" case); everything else → kInternal.
Status ErrnoStatus(const std::string& context, int err);

// Swaps the process-global Env for a scope (tests only). Nesting is
// fine; each scope restores what it saw.
class ScopedEnvOverride {
 public:
  explicit ScopedEnvOverride(Env* env);
  ~ScopedEnvOverride();

  ScopedEnvOverride(const ScopedEnvOverride&) = delete;
  ScopedEnvOverride& operator=(const ScopedEnvOverride&) = delete;

 private:
  Env* previous_;
};

// The full durable-write protocol in one call: write `contents` to a
// unique temp name next to `path`, Sync(), rename over `path`, SyncDir().
// On any failure the temp file is removed and `path` is untouched — a
// reader can never observe a torn or empty `path`.
Status WriteFileDurable(const std::string& path, std::string_view contents,
                        Env* env = GetEnv());
// The same protocol for a file assembled from `pieces` written back to
// back, so large sections (a .dpkb's CSR arrays) need no joined copy.
Status WriteFileDurable(const std::string& path,
                        std::initializer_list<std::string_view> pieces,
                        Env* env = GetEnv());

// ------------------------------------------------------ fault injection

// A test double wrapping a real Env that can (a) fail the k-th upcoming
// write / sync / rename with a chosen Status (optionally applying a
// short write first), and (b) simulate a crash: DropUnsyncedData()
// truncates every file written through this env back to its last
// successfully Sync()ed length — exactly what kill −9 plus a power cut
// does to page-cache-only data. Writes pass through to the base env so
// readers in the test see the pre-crash state until the crash is
// triggered.
//
// All mutation is mutex-guarded; the double is safe to use under the
// concurrent sweep engine (and is exercised under TSan in CI).
class FaultInjectionEnv : public Env {
 public:
  explicit FaultInjectionEnv(Env* base = Env::Default());

  // Arms one fault: the next `after` operations of the class succeed,
  // then one fails with `status`. For writes, `short_write_bytes` of the
  // failing Append are committed before the error is reported (a torn
  // write). A new call re-arms; Clear*() disarms.
  void FailWrites(int after, Status status, size_t short_write_bytes = 0);
  void FailSyncs(int after, Status status);
  void FailRenames(int after, Status status);
  // Fails the k-th upcoming ReadFileToString — flaky storage on the read
  // path (drives the sweep engine's transient-retry loop in tests).
  void FailReads(int after, Status status);
  void ClearFaults();

  // Crash simulation: every byte appended through this env that was not
  // covered by a successful Sync() is discarded (files truncated on the
  // base filesystem). Files renamed without a prior Sync() end up
  // truncated at their destination — the classic renamed-but-empty bug.
  void DropUnsyncedData();

  uint64_t write_calls() const;
  uint64_t sync_calls() const;
  uint64_t rename_calls() const;
  uint64_t read_calls() const;

  // Env:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> NewExclusiveFile(
      const std::string& path) override;
  Result<std::string> ReadFileToString(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Status CreateDir(const std::string& path) override;  // passes through
  Status SyncDir(const std::string& path_in_dir) override;

 private:
  friend class FaultInjectionWritableFile;

  struct Fault {
    bool armed = false;
    int remaining = 0;  // operations to let through before failing
    Status status;
    size_t short_write_bytes = 0;  // writes only
  };

  // Returns the fault Status if `fault` fires on this operation.
  static Status NextOp(Fault* fault, uint64_t* counter);

  Env* const base_;
  mutable std::mutex mu_;
  Fault write_fault_;
  Fault sync_fault_;
  Fault rename_fault_;
  Fault read_fault_;
  uint64_t write_calls_ = 0;
  uint64_t sync_calls_ = 0;
  uint64_t rename_calls_ = 0;
  uint64_t read_calls_ = 0;
  // Bytes known durable per path (updated by Sync/rename/truncate);
  // files never written through this env are not tracked and survive
  // DropUnsyncedData untouched.
  std::map<std::string, uint64_t> synced_size_;
  // Current on-base-filesystem size per tracked path.
  std::map<std::string, uint64_t> written_size_;
};

}  // namespace dpkron

#endif  // DPKRON_COMMON_ENV_H_
