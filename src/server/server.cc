#include "src/server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <utility>

#include "src/common/stat_cache.h"
#include "src/common/table_writer.h"
#include "src/core/scenario.h"
#include "src/scenarios/scenarios.h"

namespace dpkron {
namespace {

// A connection that streams bytes without newlines is buffered at most
// this far before being refused — the per-connection memory bound that
// complements the admission queue's request bound.
constexpr size_t kMaxLineBytes = 1 << 20;

// Back-off hint attached to shed-load rejections.
constexpr int64_t kShedRetryAfterMs = 50;

// Budget refusals cross the wire as RESOURCE_EXHAUSTED: the accountant
// reports kFailedPrecondition (an invariant of the ledger), but to a
// client "this analyst's budget cannot admit this charge" is a spent
// resource — and crucially NOT retryable-as-is (IsRetryableStatusCode),
// so well-behaved clients stop hammering a ledger that cannot say yes.
Status MapBudgetStatus(const Status& status, const std::string& analyst) {
  if (status.code() == StatusCode::kFailedPrecondition) {
    return Status::ResourceExhausted("privacy budget exhausted for analyst '" +
                                     analyst + "': " + status.message());
  }
  return status;
}

}  // namespace

DpkronServer::DpkronServer(const ServerConfig& config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock : Clock::System()),
      queue_(config.queue_depth) {}

Result<std::unique_ptr<DpkronServer>> DpkronServer::Create(
    const ServerConfig& config) {
  if (config.accountant_path.empty()) {
    return Status::InvalidArgument("server needs an accountant journal path");
  }
  if (config.workers < 1) {
    return Status::InvalidArgument("server needs at least one worker");
  }
  RegisterAllScenarios();
  auto accountant = PrivacyAccountant::Open(
      config.accountant_path, config.epsilon_budget, config.delta_budget,
      GetEnv(), config.compact_threshold);
  if (!accountant.ok()) return accountant.status();
  std::unique_ptr<DpkronServer> server(new DpkronServer(config));
  server->accountant_ = std::move(accountant).value();
  // The deterministic half of every request memoizes through the
  // process-wide StatCache: repeated (scenario, dataset, ε, seed)
  // requests — retries above all — recompute nothing.
  StatCache::Instance().set_enabled(true);
  return server;
}

DpkronServer::~DpkronServer() { Drain(); }

void DpkronServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!workers_.empty() || draining_.load()) return;
  workers_.reserve(config_.workers);
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

Status DpkronServer::Submit(const ReleaseRequest& request,
                            ResponseCallback done) {
  if (request.type == RequestType::kHealthz) {
    // Health bypasses the queue by design: the gauges must be readable
    // exactly when the queue is full or the server is draining.
    done(HealthzJson());
    return Status::Ok();
  }
  QueuedRequest task;
  task.request = request;
  task.deadline_at_ms = request.deadline_ms > 0
                            ? clock_->NowMillis() + request.deadline_ms
                            : -1;
  task.done = std::move(done);
  const Status admitted = queue_.TryPush(std::move(task));
  if (admitted.ok()) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
  } else if (admitted.code() == StatusCode::kResourceExhausted) {
    shed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    drain_refused_.fetch_add(1, std::memory_order_relaxed);
  }
  return admitted;
}

std::string DpkronServer::HandleLine(std::string_view line) {
  auto parsed = ParseRequestLine(line);
  if (!parsed.ok()) return ErrorResponseJson("", parsed.status());
  const ReleaseRequest& request = parsed.value();
  if (request.type == RequestType::kHealthz) return HealthzJson();

  // Blocking bridge: admission is asynchronous, a connection is not.
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    std::string response;
    bool done = false;
  };
  auto waiter = std::make_shared<Waiter>();
  const Status admitted = Submit(request, [waiter](std::string response) {
    {
      std::lock_guard<std::mutex> lock(waiter->mu);
      waiter->response = std::move(response);
      waiter->done = true;
    }
    waiter->cv.notify_one();
  });
  if (!admitted.ok()) {
    const int64_t retry_after =
        admitted.code() == StatusCode::kResourceExhausted
            ? kShedRetryAfterMs
            : -1;
    return ErrorResponseJson(request.request_id, admitted, retry_after);
  }
  std::unique_lock<std::mutex> lock(waiter->mu);
  waiter->cv.wait(lock, [&waiter] { return waiter->done; });
  return waiter->response;
}

void DpkronServer::WorkerMain() {
  QueuedRequest task;
  while (queue_.Pop(&task)) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    std::string response = Process(task);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    task.done(std::move(response));
    task.done = nullptr;
  }
}

Status DpkronServer::CheckDeadline(const QueuedRequest& task,
                                   const char* checkpoint) {
  if (task.deadline_at_ms < 0) return Status::Ok();
  const int64_t now = clock_->NowMillis();
  if (now <= task.deadline_at_ms) return Status::Ok();
  return Status::DeadlineExceeded(
      std::string("deadline exceeded at ") + checkpoint + " (" +
      std::to_string(now - task.deadline_at_ms) + "ms past)");
}

std::string DpkronServer::Process(const QueuedRequest& task) {
  const ReleaseRequest& request = task.request;

  // Checkpoint 1 — dequeue: a request that aged out while queued is
  // answered without computing anything or spending anything.
  Status deadline = CheckDeadline(task, "dequeue");
  if (!deadline.ok()) {
    deadline_missed_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponseJson(request.request_id, deadline);
  }

  const ScenarioSpec* spec = FindScenario(request.scenario);
  if (spec == nullptr) {
    return ErrorResponseJson(
        request.request_id,
        Status::NotFound("unknown scenario '" + request.scenario + "'"));
  }

  // Pre-check the budget so a hopeless request fails before the
  // expensive compute — EXCEPT for a request_id already charged: its
  // retry must be acknowledged even from an exhausted budget (the first
  // attempt paid; see PrivacyAccountant::SpendOnce).
  const bool seen = accountant_->SeenRequest(request.request_id);
  if (!seen) {
    const Status precheck = accountant_->CheckSpend(
        request.analyst, request.epsilon, spec->defaults.delta);
    if (!precheck.ok()) {
      budget_refused_.fetch_add(1, std::memory_order_relaxed);
      return ErrorResponseJson(request.request_id,
                               MapBudgetStatus(precheck, request.analyst));
    }
  }

  // Compute — the deterministic half, StatCache-amortized.
  ScenarioOverrides overrides = config_.base;
  overrides.epsilon = request.epsilon;
  if (request.seed.has_value()) overrides.seed = *request.seed;
  if (!request.dataset.empty()) overrides.dataset = request.dataset;
  if (!overrides.dataset) {
    // The sidecar choice reaches run.params only for file datasets.
    overrides.dataset_cache = false;
  }
  ScenarioOutput output(request.scenario, /*text_out=*/nullptr);
  const Status ran = RunScenario(*spec, overrides, output);
  if (!ran.ok()) return ErrorResponseJson(request.request_id, ran);

  // Checkpoint 2 — pre-spend: past-deadline work is discarded WITHOUT
  // charging. The client has (by its own declaration) stopped waiting;
  // spending ε for an answer nobody consumes would leak budget.
  deadline = CheckDeadline(task, "pre-spend");
  if (!deadline.ok()) {
    deadline_missed_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponseJson(request.request_id, deadline);
  }

  // Spend — the one irreversible step: journal, fsync, apply, ack.
  const double epsilon = output.params().epsilon;
  const double delta = output.params().delta;
  bool deduped = false;
  const Status spent = accountant_->SpendOnce(
      request.analyst, epsilon, delta,
      request.scenario +
          (request.dataset.empty() ? "" : "@" + request.dataset),
      request.request_id, &deduped);
  if (!spent.ok()) {
    if (spent.code() == StatusCode::kFailedPrecondition) {
      budget_refused_.fetch_add(1, std::memory_order_relaxed);
    }
    return ErrorResponseJson(request.request_id,
                             MapBudgetStatus(spent, request.analyst));
  }
  if (deduped) deduped_.fetch_add(1, std::memory_order_relaxed);
  ok_.fetch_add(1, std::memory_order_relaxed);
  return SuccessResponseJson(task, epsilon, delta, deduped, output);
}

std::string DpkronServer::SuccessResponseJson(
    const QueuedRequest& task, double epsilon, double delta, bool deduped,
    const ScenarioOutput& output) const {
  JsonWriter json;
  json.BeginObject();
  json.Key("request_id");
  json.String(task.request.request_id);
  json.Key("ok");
  json.Bool(true);
  json.Key("code");
  json.String("OK");
  json.Key("analyst");
  json.String(task.request.analyst);
  json.Key("deduped");
  json.Bool(deduped);
  json.Key("charge");
  json.BeginObject();
  json.Key("epsilon");
  json.Number(epsilon);
  json.Key("delta");
  json.Number(delta);
  json.EndObject();
  json.Key("budget");
  json.BeginObject();
  json.Key("epsilon_spent");
  json.Number(accountant_->epsilon_spent(task.request.analyst));
  json.Key("epsilon_remaining");
  json.Number(accountant_->epsilon_remaining(task.request.analyst));
  json.Key("delta_spent");
  json.Number(accountant_->delta_spent(task.request.analyst));
  json.EndObject();
  json.Key("run");
  output.AppendRunJson(json);
  json.EndObject();
  return json.str();
}

std::string DpkronServer::HealthzJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("ok");
  json.Bool(true);
  json.Key("code");
  json.String("OK");
  json.Key("type");
  json.String("healthz");
  json.Key("draining");
  json.Bool(draining_.load(std::memory_order_relaxed));
  json.Key("queue_depth");
  json.UInt(queue_.size());
  json.Key("queue_capacity");
  json.UInt(queue_.capacity());
  json.Key("in_flight");
  json.Int(in_flight_.load(std::memory_order_relaxed));
  json.Key("workers");
  json.Int(config_.workers);
  const ServerStats stats = this->stats();
  json.Key("stats");
  json.BeginObject();
  json.Key("accepted");
  json.UInt(stats.accepted);
  json.Key("shed");
  json.UInt(stats.shed);
  json.Key("drain_refused");
  json.UInt(stats.drain_refused);
  json.Key("completed");
  json.UInt(stats.completed);
  json.Key("ok");
  json.UInt(stats.ok);
  json.Key("deadline_missed");
  json.UInt(stats.deadline_missed);
  json.Key("budget_refused");
  json.UInt(stats.budget_refused);
  json.Key("deduped");
  json.UInt(stats.deduped);
  json.EndObject();
  json.Key("budget");
  json.BeginObject();
  json.Key("epsilon_total");
  json.Number(accountant_->epsilon_total());
  json.Key("delta_total");
  json.Number(accountant_->delta_total());
  json.EndObject();
  json.Key("analysts");
  json.BeginObject();
  for (const std::string& analyst : accountant_->analysts()) {
    json.Key(analyst);
    json.BeginObject();
    json.Key("epsilon_spent");
    json.Number(accountant_->epsilon_spent(analyst));
    json.Key("epsilon_remaining");
    json.Number(accountant_->epsilon_remaining(analyst));
    json.Key("delta_spent");
    json.Number(accountant_->delta_spent(analyst));
    json.EndObject();
  }
  json.EndObject();
  json.Key("cache");
  AppendStatCacheJson(json, StatCache::Instance().enabled());
  json.EndObject();
  return json.str();
}

ServerStats DpkronServer::stats() const {
  ServerStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.drain_refused = drain_refused_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.ok = ok_.load(std::memory_order_relaxed);
  stats.deadline_missed = deadline_missed_.load(std::memory_order_relaxed);
  stats.budget_refused = budget_refused_.load(std::memory_order_relaxed);
  stats.deduped = deduped_.load(std::memory_order_relaxed);
  return stats;
}

void DpkronServer::Drain() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  draining_.store(true, std::memory_order_relaxed);
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  CloseConnections();
  // The journal is fsynced per spend; nothing further to flush. The
  // accountant stays open so post-drain healthz keeps reporting.
}

// ---------------------------------------------------------- TCP layer

Status DpkronServer::Listen(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = ErrnoStatus("bind", errno);
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) != 0) {
    const Status status = ErrnoStatus("listen", errno);
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  listen_fd_ = fd;
  return Status::Ok();
}

void DpkronServer::AcceptLoop(const std::atomic<bool>* stop) {
  while (listen_fd_ >= 0) {
    if ((stop != nullptr && stop->load(std::memory_order_relaxed)) ||
        draining_.load(std::memory_order_relaxed)) {
      break;
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal — re-check the stop flag
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    // Reap finished connections so a long-lived daemon serving many
    // short connections does not accumulate joinable threads.
    for (size_t i = 0; i < conns_.size();) {
      if (conns_[i]->done.load(std::memory_order_acquire)) {
        conns_[i]->thread.join();
        ::close(conns_[i]->fd);
        conns_.erase(conns_.begin() + i);
      } else {
        ++i;
      }
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conns_.push_back(conn);
    conn->thread = std::thread([this, conn] { ServeConnection(conn.get()); });
  }
}

void DpkronServer::ServeConnection(Connection* conn) {
  const int fd = conn->fd;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while (open && (newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.empty()) continue;
      const std::string response = HandleLine(line) + "\n";
      size_t sent = 0;
      while (sent < response.size()) {
        const ssize_t wrote =
            ::write(fd, response.data() + sent, response.size() - sent);
        if (wrote < 0 && errno == EINTR) continue;
        if (wrote <= 0) {
          open = false;
          break;
        }
        sent += static_cast<size_t>(wrote);
      }
    }
    if (buffer.size() > kMaxLineBytes) {
      // A newline-free flood is refused, not buffered without bound.
      const std::string refusal =
          ErrorResponseJson(
              "", Status::InvalidArgument("request line exceeds 1MiB")) +
          "\n";
      (void)!::write(fd, refusal.data(), refusal.size());
      break;
    }
  }
  // shutdown only — the fd is closed by whoever JOINS this thread
  // (the accept loop's reap or CloseConnections), so a concurrent
  // shutdown from Drain can never hit a recycled fd number.
  ::shutdown(fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

void DpkronServer::CloseConnections() {
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conns_);
  }
  // shutdown() unblocks any read a connection thread is parked in; the
  // fd stays open (shutdown-not-close) until after the join below, so
  // no call here can ever land on a recycled fd number.
  for (const auto& conn : conns) ::shutdown(conn->fd, SHUT_RDWR);
  for (const auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace dpkron
