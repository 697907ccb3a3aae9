// FileClaim — the one cross-process "load or compute" lock protocol
// behind the file-backed caches: the .dpkb sidecar rebuild
// (graph_io.cc) and DiskEntryClaim (disk_cache.cc).
//
// A miss elects one computer per lock file with an O_EXCL create
// through the Env seam. The holder computes, installs the entry
// (write-temp → sync → rename) and releases by removing the lock. A
// waiter polls: every poll_ms it re-runs the caller's load, adopting
// the holder's entry as soon as its rename lands; it claims the lock
// itself if the holder released without an entry; and a lock older
// than stale_ms is presumed orphaned (holder crashed between create
// and unlink) and broken. Locking is advisory and best-effort: every
// failure of the protocol — permissions, an injected fault, losing a
// break race to another waiter — degrades to an uncoordinated compute,
// duplicated work with identical bytes, never a wrong result or a
// failed load.

#ifndef DPKRON_COMMON_FILE_CLAIM_H_
#define DPKRON_COMMON_FILE_CLAIM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/common/status.h"

namespace dpkron {

struct LockOptions {
  int64_t poll_ms = 20;      // a waiter re-runs the load this often
  int64_t stale_ms = 10000;  // a lock that outlives this is broken
};

class FileClaim {
 public:
  explicit FileClaim(std::string lock_path)
      : lock_path_(std::move(lock_path)) {}
  ~FileClaim() { Release(); }

  FileClaim(const FileClaim&) = delete;
  FileClaim& operator=(const FileClaim&) = delete;

  // True when `try_load` served the entry, at once or after waiting
  // out another holder. False means "compute it": the claim then holds
  // the lock unless the protocol degraded, and Release (or the
  // destructor) drops it once the entry is installed.
  bool LoadOrClaim(const LockOptions& options,
                   const std::function<bool()>& try_load);

  // Removing the lock file IS the release. No-op when not held.
  void Release();

 private:
  // One O_EXCL attempt. kFailedPrecondition = held elsewhere.
  Status TryAcquire();

  const std::string lock_path_;
  bool held_ = false;
};

}  // namespace dpkron

#endif  // DPKRON_COMMON_FILE_CLAIM_H_
