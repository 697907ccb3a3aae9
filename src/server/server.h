// dpkrond — the fault-tolerant private-release server (ROADMAP item 1).
//
// One process serves private graph releases to many concurrent
// analysts over line-delimited JSON / TCP (see wire.h). The request
// path is a fixed pipeline with the robustness decisions made at named
// points:
//
//   admission   bounded AdmissionQueue; full ⇒ shed with
//               kResourceExhausted + retry_after_ms, never unbounded
//               buffering. Draining ⇒ kUnavailable.
//   dequeue     deadline checkpoint: a request that aged out in the
//               queue is answered kDeadlineExceeded without touching
//               the release pipeline (and without spending budget).
//   compute     the deterministic half of the release (scenario run
//               over the shared thread pool, amortized by the
//               process-wide StatCache).
//   pre-spend   second deadline checkpoint: a request that missed its
//               deadline during compute is refused BEFORE the charge —
//               the budget is spent only for responses the client can
//               still use.
//   spend       PrivacyAccountant::SpendOnce — journal-then-apply with
//               fsync-before-ack, so a crash can only over-count, and
//               request_id dedup, so a retried request is charged
//               exactly once. Exhausted budgets map to
//               kResourceExhausted on the wire.
//
// Shutdown is two distinct contracts: Drain() (SIGTERM) stops
// admission, finishes every queued and in-flight request, and leaves
// the accountant journal synced — while kill -9 at ANY point recovers
// on restart by replaying the journal, never losing an acknowledged
// spend (tests/server_test.cc's torture test drives both with
// FaultInjectionEnv + FakeClock).

#ifndef DPKRON_SERVER_SERVER_H_
#define DPKRON_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/core/scenario.h"
#include "src/dp/privacy_accountant.h"
#include "src/server/admission_queue.h"
#include "src/server/clock.h"
#include "src/server/wire.h"

namespace dpkron {

struct ServerConfig {
  ServerConfig() { base.dataset_cache = true; }

  // Worker threads consuming the admission queue. Each request's
  // scenario kernels additionally use the shared parallel pool.
  int workers = 4;
  // Admission queue capacity — the server's entire buffering. At 2×
  // sustained capacity, the excess is shed, not queued.
  size_t queue_depth = 64;
  // Durable accountant journal path (required).
  std::string accountant_path;
  // Per-analyst (ε, δ) budget, pinned into the journal header. The δ
  // default is permissive (scenarios charge their default δ, e.g. 0.01,
  // per release; the accountant requires δ < 1) — tighten it to make δ
  // the binding constraint.
  double epsilon_budget = 1.0;
  double delta_budget = 0.5;
  uint64_t compact_threshold = PrivacyAccountant::kDefaultCompactThreshold;
  // Scenario knobs for every request; the request supplies ε, seed and
  // dataset (the sidecar choice applies only when it names an edge
  // list). Sidecars are on by default.
  ScenarioOverrides base;
  // Time source; nullptr = the monotonic system clock. Tests inject
  // FakeClock to drive the deadline checkpoints deterministically.
  Clock* clock = nullptr;
};

// Monotonic counters (retrieved as one consistent-enough snapshot for
// healthz; each field is individually atomic).
struct ServerStats {
  uint64_t accepted = 0;         // admitted to the queue
  uint64_t shed = 0;             // rejected: queue full
  uint64_t drain_refused = 0;    // rejected: draining
  uint64_t completed = 0;        // responses delivered by workers
  uint64_t ok = 0;               // ... of which carried a release
  uint64_t deadline_missed = 0;  // kDeadlineExceeded at either checkpoint
  uint64_t budget_refused = 0;   // kResourceExhausted from the accountant
  uint64_t deduped = 0;          // request_id retries answered w/o charge
};

class DpkronServer {
 public:
  // Invoked exactly once with the response line (no trailing newline)
  // for every request that was ADMITTED. Runs on a worker thread.
  using ResponseCallback = std::function<void(std::string response_json)>;

  // Opens (recovering/compacting) the accountant and enables the
  // process-wide StatCache. Workers are NOT started — call Start();
  // the gap is the seam tests use to fill the queue deterministically.
  static Result<std::unique_ptr<DpkronServer>> Create(
      const ServerConfig& config);
  ~DpkronServer();

  DpkronServer(const DpkronServer&) = delete;
  DpkronServer& operator=(const DpkronServer&) = delete;

  void Start();

  // Admission (non-blocking). OK ⇒ `done` will be invoked exactly once
  // from a worker; non-OK ⇒ `done` is never invoked and the caller owns
  // the error response (kResourceExhausted = shed, retry after
  // 50 ms; kUnavailable = draining). healthz
  // requests are answered inline through `done` without queueing —
  // health must be observable precisely when the queue is full.
  Status Submit(const ReleaseRequest& request, ResponseCallback done);

  // Parse + dispatch + wait: the blocking convenience the connection
  // threads (and tests) use. Always returns a response line.
  std::string HandleLine(std::string_view line);

  // The healthz gauge snapshot (also served via HandleLine).
  std::string HealthzJson() const;

  // Graceful drain: refuse new admissions, finish every queued and
  // in-flight request, join workers, close the journal. Idempotent.
  // The crash path needs no counterpart — kill -9 IS the test, and
  // recovery is Create() replaying the journal.
  void Drain();

  // ------------------------------------------------------ TCP front end
  // Binds and listens on `port` (0 = ephemeral, see port()).
  Status Listen(int port);
  int port() const { return port_; }
  // Accepts connections until *stop becomes true (checked every poll
  // interval) or Drain() is called; one thread per connection, each
  // serving line-delimited requests. Blocks the calling thread.
  void AcceptLoop(const std::atomic<bool>* stop);

  const PrivacyAccountant& accountant() const { return *accountant_; }
  ServerStats stats() const;
  size_t queue_size() const { return queue_.size(); }
  int in_flight() const { return in_flight_.load(std::memory_order_relaxed); }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

 private:
  struct QueuedRequest {
    ReleaseRequest request;
    int64_t deadline_at_ms = -1;  // absolute; < 0 = none
    ResponseCallback done;
  };

  explicit DpkronServer(const ServerConfig& config);

  // One accepted TCP connection: the serving thread and its fd. The fd
  // is closed only after the thread is joined (reap or shutdown).
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void WorkerMain();
  std::string Process(const QueuedRequest& task);
  // kDeadlineExceeded naming `checkpoint` if the deadline passed.
  Status CheckDeadline(const QueuedRequest& task, const char* checkpoint);
  std::string SuccessResponseJson(const QueuedRequest& task, double epsilon,
                                  double delta, bool deduped,
                                  const class ScenarioOutput& output) const;
  void ServeConnection(Connection* conn);
  void CloseConnections();

  ServerConfig config_;
  Clock* clock_;
  std::unique_ptr<PrivacyAccountant> accountant_;
  AdmissionQueue<QueuedRequest> queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> draining_{false};
  std::atomic<int> in_flight_{0};
  std::mutex lifecycle_mu_;  // guards Start/Drain transitions

  // Stats (relaxed atomics; healthz reads a snapshot).
  std::atomic<uint64_t> accepted_{0}, shed_{0}, drain_refused_{0},
      completed_{0}, ok_{0}, deadline_missed_{0}, budget_refused_{0},
      deduped_{0};

  // TCP state.
  int listen_fd_ = -1;
  int port_ = 0;
  std::mutex conn_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
};

}  // namespace dpkron

#endif  // DPKRON_SERVER_SERVER_H_
