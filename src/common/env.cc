#include "src/common/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>

namespace dpkron {

Status ErrnoStatus(const std::string& context, int err) {
  const std::string message = context + ": " + std::strerror(err);
  switch (err) {
    case ENOENT:
      return Status::NotFound(message);
    case ENOSPC:
    case EDQUOT:
      return Status::ResourceExhausted(message);
    case ETIMEDOUT:
      return Status::DeadlineExceeded(message);
    case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
    case ECONNRESET:
    case ECONNREFUSED:
    case EPIPE:
      return Status::Unavailable(message);
    case EEXIST:
      return Status::FailedPrecondition(message);
    default:
      return Status::Internal(message);
  }
}

namespace {

// ---------------------------------------------------------- POSIX env

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const void* data, size_t len) override {
    const char* p = static_cast<const char*>(data);
    while (len > 0) {
      const ssize_t n = ::write(fd_, p, len);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write " + path_, errno);
      }
      p += n;
      len -= static_cast<size_t>(n);
    }
    return Status::Ok();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync " + path_, errno);
    return Status::Ok();
  }

  Status Close() override {
    if (fd_ < 0) return Status::Ok();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close " + path_, errno);
    return Status::Ok();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    return OpenForWrite(path, O_WRONLY | O_CREAT | O_TRUNC);
  }

  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override {
    return OpenForWrite(path, O_WRONLY | O_CREAT | O_APPEND);
  }

  Result<std::unique_ptr<WritableFile>> NewExclusiveFile(
      const std::string& path) override {
    return OpenForWrite(path, O_WRONLY | O_CREAT | O_EXCL);
  }

  Result<std::string> ReadFileToString(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return ErrnoStatus("open " + path, errno);
    std::string bytes;
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      bytes.reserve(static_cast<size_t>(st.st_size));
    }
    char buffer[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, buffer, sizeof(buffer));
      if (n < 0) {
        if (errno == EINTR) continue;
        const Status status = ErrnoStatus("read " + path, errno);
        ::close(fd);
        return status;
      }
      if (n == 0) break;
      bytes.append(buffer, static_cast<size_t>(n));
    }
    ::close(fd);
    return bytes;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return ErrnoStatus("stat " + path, errno);
    }
    return static_cast<uint64_t>(st.st_size);
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename " + from + " -> " + to, errno);
    }
    return Status::Ok();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      return ErrnoStatus("remove " + path, errno);
    }
    return Status::Ok();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("truncate " + path, errno);
    }
    return Status::Ok();
  }

  Status CreateDir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return ErrnoStatus("mkdir " + path, errno);
    }
    return Status::Ok();
  }

  Status SyncDir(const std::string& path_in_dir) override {
    const size_t slash = path_in_dir.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path_in_dir.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return ErrnoStatus("open dir " + dir, errno);
    Status status;
    if (::fsync(fd) != 0) status = ErrnoStatus("fsync dir " + dir, errno);
    ::close(fd);
    return status;
  }

 private:
  static Result<std::unique_ptr<WritableFile>> OpenForWrite(
      const std::string& path, int flags) {
    const int fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
    if (fd < 0) return ErrnoStatus("open " + path, errno);
    return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
  }
};

std::atomic<Env*> g_env{nullptr};

}  // namespace

Env* Env::Default() {
  static PosixEnv* posix = new PosixEnv;  // leaked: process lifetime
  return posix;
}

Env* GetEnv() {
  Env* env = g_env.load(std::memory_order_acquire);
  return env != nullptr ? env : Env::Default();
}

ScopedEnvOverride::ScopedEnvOverride(Env* env)
    : previous_(g_env.exchange(env, std::memory_order_acq_rel)) {}

ScopedEnvOverride::~ScopedEnvOverride() {
  g_env.store(previous_, std::memory_order_release);
}

Status WriteFileDurable(const std::string& path, std::string_view contents,
                        Env* env) {
  return WriteFileDurable(path, {contents}, env);
}

Status WriteFileDurable(const std::string& path,
                        std::initializer_list<std::string_view> pieces,
                        Env* env) {
  // Unique per process and call: two concurrent writers of the same
  // destination must not truncate each other's in-flight temp file.
  static std::atomic<uint64_t> counter{0};
  const std::string temp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  auto file = env->NewWritableFile(temp);
  if (!file.ok()) return file.status();
  Status status;
  for (const std::string_view piece : pieces) {
    if (status.ok() && !piece.empty()) status = file.value()->Append(piece);
  }
  // Sync before rename: without it a crash after the rename can leave
  // the destination name pointing at never-written blocks.
  if (status.ok()) status = file.value()->Sync();
  const Status close_status = file.value()->Close();
  if (status.ok()) status = close_status;
  if (status.ok()) status = env->RenameFile(temp, path);
  if (!status.ok()) {
    (void)env->RemoveFile(temp);
    return status;
  }
  // Make the rename itself durable. Failure here is reported (the
  // caller may retry), but the destination is already valid.
  return env->SyncDir(path);
}

// ------------------------------------------------------ fault injection

class FaultInjectionWritableFile : public WritableFile {
 public:
  FaultInjectionWritableFile(FaultInjectionEnv* env, std::string path,
                             std::unique_ptr<WritableFile> base,
                             uint64_t initial_size)
      : env_(env),
        path_(std::move(path)),
        base_(std::move(base)),
        size_(initial_size) {}

  ~FaultInjectionWritableFile() override {
    if (base_ != nullptr) (void)base_->Close();
  }

  Status Append(const void* data, size_t len) override {
    std::unique_lock<std::mutex> lock(env_->mu_);
    ++env_->write_calls_;
    const Status fault =
        FaultInjectionEnv::NextOp(&env_->write_fault_, nullptr);
    size_t commit = len;
    if (!fault.ok()) {
      commit = std::min(env_->write_fault_.short_write_bytes, len);
    }
    lock.unlock();
    if (commit > 0) {
      const Status base_status = base_->Append(data, commit);
      if (!base_status.ok()) return base_status;
      lock.lock();
      size_ += commit;
      env_->written_size_[path_] = size_;
      lock.unlock();
    }
    return fault;
  }

  Status Sync() override {
    std::unique_lock<std::mutex> lock(env_->mu_);
    ++env_->sync_calls_;
    const Status fault = FaultInjectionEnv::NextOp(&env_->sync_fault_, nullptr);
    if (!fault.ok()) return fault;
    lock.unlock();
    const Status base_status = base_->Sync();
    if (!base_status.ok()) return base_status;
    lock.lock();
    env_->synced_size_[path_] = size_;
    return Status::Ok();
  }

  Status Close() override {
    if (base_ == nullptr) return Status::Ok();
    auto base = std::move(base_);
    return base->Close();
  }

 private:
  FaultInjectionEnv* const env_;
  const std::string path_;
  std::unique_ptr<WritableFile> base_;
  uint64_t size_;  // bytes written through this handle + initial size
};

FaultInjectionEnv::FaultInjectionEnv(Env* base) : base_(base) {}

Status FaultInjectionEnv::NextOp(Fault* fault, uint64_t* counter) {
  if (counter != nullptr) ++*counter;
  if (!fault->armed) return Status::Ok();
  if (fault->remaining > 0) {
    --fault->remaining;
    return Status::Ok();
  }
  fault->armed = false;
  return fault->status;
}

void FaultInjectionEnv::FailWrites(int after, Status status,
                                   size_t short_write_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  write_fault_ = Fault{true, after, std::move(status), short_write_bytes};
}

void FaultInjectionEnv::FailSyncs(int after, Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  sync_fault_ = Fault{true, after, std::move(status), 0};
}

void FaultInjectionEnv::FailRenames(int after, Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  rename_fault_ = Fault{true, after, std::move(status), 0};
}

void FaultInjectionEnv::FailReads(int after, Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  read_fault_ = Fault{true, after, std::move(status), 0};
}

void FaultInjectionEnv::ClearFaults() {
  std::lock_guard<std::mutex> lock(mu_);
  write_fault_ = Fault{};
  sync_fault_ = Fault{};
  rename_fault_ = Fault{};
  read_fault_ = Fault{};
}

void FaultInjectionEnv::DropUnsyncedData() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [path, written] : written_size_) {
    uint64_t synced = 0;
    if (const auto it = synced_size_.find(path); it != synced_size_.end()) {
      synced = it->second;
    }
    if (synced < written) {
      (void)base_->TruncateFile(path, synced);
    }
  }
  written_size_.clear();
  synced_size_.clear();
}

uint64_t FaultInjectionEnv::write_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_calls_;
}
uint64_t FaultInjectionEnv::sync_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sync_calls_;
}
uint64_t FaultInjectionEnv::rename_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rename_calls_;
}
uint64_t FaultInjectionEnv::read_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_calls_;
}

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewWritableFile(
    const std::string& path) {
  auto base = base_->NewWritableFile(path);
  if (!base.ok()) return base.status();
  std::lock_guard<std::mutex> lock(mu_);
  written_size_[path] = 0;
  synced_size_[path] = 0;
  return std::unique_ptr<WritableFile>(new FaultInjectionWritableFile(
      this, path, std::move(base).value(), 0));
}

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewExclusiveFile(
    const std::string& path) {
  auto base = base_->NewExclusiveFile(path);
  if (!base.ok()) return base.status();
  std::lock_guard<std::mutex> lock(mu_);
  written_size_[path] = 0;
  synced_size_[path] = 0;
  return std::unique_ptr<WritableFile>(new FaultInjectionWritableFile(
      this, path, std::move(base).value(), 0));
}

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewAppendableFile(
    const std::string& path) {
  auto base = base_->NewAppendableFile(path);
  if (!base.ok()) return base.status();
  uint64_t size = 0;
  if (auto existing = base_->FileSize(path); existing.ok()) {
    size = existing.value();
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Pre-existing bytes are treated as durable: the crash being simulated
  // is a crash of THIS process, not a rewrite of history.
  if (written_size_.find(path) == written_size_.end()) {
    written_size_[path] = size;
    synced_size_[path] = size;
  }
  return std::unique_ptr<WritableFile>(new FaultInjectionWritableFile(
      this, path, std::move(base).value(), size));
}

Result<std::string> FaultInjectionEnv::ReadFileToString(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Status fault = NextOp(&read_fault_, &read_calls_);
    if (!fault.ok()) return fault;
  }
  return base_->ReadFileToString(path);
}

Result<uint64_t> FaultInjectionEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  std::unique_lock<std::mutex> lock(mu_);
  ++rename_calls_;
  const Status fault = NextOp(&rename_fault_, nullptr);
  if (!fault.ok()) return fault;
  // Transfer durability tracking: the destination inherits the source's
  // synced prefix, so un-synced-then-renamed content still dies with
  // DropUnsyncedData — at its new name.
  if (const auto it = written_size_.find(from); it != written_size_.end()) {
    written_size_[to] = it->second;
    written_size_.erase(it);
    const auto synced = synced_size_.find(from);
    synced_size_[to] = synced != synced_size_.end() ? synced->second : 0;
    if (synced != synced_size_.end()) synced_size_.erase(synced);
  }
  lock.unlock();
  return base_->RenameFile(from, to);
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    written_size_.erase(path);
    synced_size_.erase(path);
  }
  return base_->RemoveFile(path);
}

Status FaultInjectionEnv::TruncateFile(const std::string& path,
                                       uint64_t size) {
  const Status status = base_->TruncateFile(path, size);
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = written_size_.find(path); it != written_size_.end()) {
      it->second = std::min(it->second, size);
    }
    if (const auto it = synced_size_.find(path); it != synced_size_.end()) {
      it->second = std::min(it->second, size);
    }
  }
  return status;
}

Status FaultInjectionEnv::CreateDir(const std::string& path) {
  return base_->CreateDir(path);
}

Status FaultInjectionEnv::SyncDir(const std::string& path_in_dir) {
  return base_->SyncDir(path_in_dir);
}

}  // namespace dpkron
