#include "src/common/file_claim.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/env.h"

namespace dpkron {

bool FileClaim::LoadOrClaim(const LockOptions& options,
                            const std::function<bool()>& try_load) {
  if (try_load()) return true;
  const Status acquired = TryAcquire();
  // Any failure other than "held elsewhere" means locks don't work
  // here: compute uncoordinated.
  if (acquired.code() != StatusCode::kFailedPrecondition) return false;
  const int64_t poll_ms = std::max<int64_t>(1, options.poll_ms);
  for (int64_t waited_ms = 0; waited_ms < options.stale_ms;
       waited_ms += poll_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    if (try_load()) return true;
    if (TryAcquire().ok()) return false;  // released without an entry
  }
  // Stale: remove + reacquire. Losing the remove/create race to another
  // breaker just means both compute, uncoordinated.
  (void)GetEnv()->RemoveFile(lock_path_);
  (void)TryAcquire();
  return false;
}

void FileClaim::Release() {
  if (!held_) return;
  held_ = false;
  (void)GetEnv()->RemoveFile(lock_path_);
}

Status FileClaim::TryAcquire() {
  auto file = GetEnv()->NewExclusiveFile(lock_path_);
  if (!file.ok()) return file.status();
  (void)file.value()->Close();
  held_ = true;
  return Status::Ok();
}

}  // namespace dpkron
