// dpkrond end-to-end: wire parsing, bounded admission with
// load-shedding, the two deadline checkpoints (budget untouched on
// either refusal), request_id-idempotent retries, budget exhaustion on
// the wire, graceful drain (every admitted request answered), healthz,
// the TCP loopback path, and the crash/restart torture test — cycles of
// concurrent analysts against a FaultInjectionEnv-backed accountant,
// asserting after every recovery that the replayed ledger contains
// every acknowledged spend and never exceeds any analyst's budget.

#include "src/server/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/env.h"
#include "src/common/rng.h"
#include "src/common/stat_cache.h"
#include "src/datasets/preferential_attachment.h"
#include "src/graph/graph_io.h"
#include "src/scenarios/scenarios.h"
#include "src/server/wire.h"

namespace dpkron {
namespace {

// Process-unique fixture paths (parallel ctest shards share /tmp).
std::string UniqueTempPath(const std::string& stem, const std::string& ext) {
  return ::testing::TempDir() + "/" + stem + "_" +
         std::to_string(::getpid()) + ext;
}

// A small file-backed dataset keeps every release in this file cheap;
// all tests share one so the StatCache amortizes across them exactly
// the way a warm daemon amortizes across requests.
const std::string& SharedDataset() {
  static const std::string path = [] {
    const std::string p = UniqueTempPath("server_dataset", ".edges");
    Rng rng(4242);
    PreferentialAttachmentOptions options;
    options.num_nodes = 120;
    options.edges_per_node = 2;
    EXPECT_TRUE(WriteEdgeList(PreferentialAttachmentGraph(options, rng), p)
                    .ok());
    return p;
  }();
  return path;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterAllScenarios();
    StatCache::Instance().set_enabled(false);
    StatCache::Instance().Clear();
  }
  void TearDown() override {
    StatCache::Instance().set_enabled(false);
    StatCache::Instance().Clear();
  }

  ServerConfig BaseConfig(const std::string& stem) {
    ServerConfig config;
    config.accountant_path = UniqueTempPath(stem, ".dpkacct");
    if (GetEnv()->FileExists(config.accountant_path)) {
      EXPECT_TRUE(GetEnv()->RemoveFile(config.accountant_path).ok());
    }
    config.workers = 2;
    config.base.smoke = true;
    config.base.kronfit_iterations = 2;
    return config;
  }

  ReleaseRequest MakeRequest(const std::string& analyst,
                             const std::string& request_id,
                             double epsilon = 0.25) {
    ReleaseRequest request;
    request.type = RequestType::kRelease;
    request.analyst = analyst;
    request.scenario = "fig2_as20";
    request.dataset = SharedDataset();
    request.epsilon = epsilon;
    request.seed = 7;
    request.request_id = request_id;
    return request;
  }

  std::string RequestLine(const ReleaseRequest& r) {
    return "{\"analyst\":\"" + r.analyst + "\",\"scenario\":\"" + r.scenario +
           "\",\"dataset\":\"" + r.dataset +
           "\",\"epsilon\":" + std::to_string(r.epsilon) +
           ",\"seed\":7,\"request_id\":\"" + r.request_id + "\"}";
  }
};

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// Collects worker callbacks and lets the test wait for a count.
struct ResponseSink {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> responses;

  DpkronServer::ResponseCallback Callback() {
    return [this](std::string response) {
      {
        std::lock_guard<std::mutex> lock(mu);
        responses.push_back(std::move(response));
      }
      cv.notify_all();
    };
  }

  std::vector<std::string> WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return responses.size() >= n; });
    return responses;
  }
};

// ------------------------------------------------------------- wire

TEST(WireTest, ParsesFullRequest) {
  const auto parsed = ParseRequestLine(
      "{\"analyst\":\"alice\",\"scenario\":\"fig2_as20\",\"dataset\":"
      "\"/d/x.edges\",\"epsilon\":0.5,\"seed\":9,\"deadline_ms\":250,"
      "\"request_id\":\"r-1\",\"future_field\":true}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().type, RequestType::kRelease);
  EXPECT_EQ(parsed.value().analyst, "alice");
  EXPECT_EQ(parsed.value().scenario, "fig2_as20");
  EXPECT_EQ(parsed.value().dataset, "/d/x.edges");
  EXPECT_DOUBLE_EQ(parsed.value().epsilon, 0.5);
  ASSERT_TRUE(parsed.value().seed.has_value());
  EXPECT_EQ(*parsed.value().seed, 9u);
  EXPECT_EQ(parsed.value().deadline_ms, 250);
  EXPECT_EQ(parsed.value().request_id, "r-1");
}

TEST(WireTest, ParsesHealthz) {
  const auto parsed = ParseRequestLine("{\"type\":\"healthz\"}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().type, RequestType::kHealthz);
}

TEST(WireTest, RefusesMalformedAndIncompleteRequests) {
  // Not JSON at all.
  EXPECT_EQ(ParseRequestLine("GET / HTTP/1.1").status().code(),
            StatusCode::kInvalidArgument);
  // Structurally broken.
  EXPECT_FALSE(ParseRequestLine("{\"analyst\":").ok());
  EXPECT_FALSE(ParseRequestLine("{\"analyst\":\"a\"} trailing").ok());
  // Nested containers are outside the protocol.
  EXPECT_FALSE(ParseRequestLine("{\"analyst\":{\"nested\":1}}").ok());
  // Missing required fields.
  EXPECT_FALSE(ParseRequestLine("{\"scenario\":\"s\",\"epsilon\":1}").ok());
  EXPECT_FALSE(ParseRequestLine("{\"analyst\":\"a\",\"epsilon\":1}").ok());
  EXPECT_FALSE(
      ParseRequestLine("{\"analyst\":\"a\",\"scenario\":\"s\"}").ok());
  // ε must be positive and finite.
  EXPECT_FALSE(ParseRequestLine(
                   "{\"analyst\":\"a\",\"scenario\":\"s\",\"epsilon\":0}")
                   .ok());
  EXPECT_FALSE(ParseRequestLine(
                   "{\"analyst\":\"a\",\"scenario\":\"s\",\"epsilon\":-1}")
                   .ok());
  // Unknown type.
  EXPECT_FALSE(ParseRequestLine("{\"type\":\"exfiltrate\"}").ok());
}

TEST(WireTest, ErrorResponseCarriesCodeAndRetryHint) {
  const std::string shed = ErrorResponseJson(
      "r-9", Status::ResourceExhausted("admission queue full"), 50);
  EXPECT_TRUE(Contains(shed, "\"request_id\":\"r-9\""));
  EXPECT_TRUE(Contains(shed, "\"ok\":false"));
  EXPECT_TRUE(Contains(shed, "\"code\":\"RESOURCE_EXHAUSTED\""));
  EXPECT_TRUE(Contains(shed, "\"retry_after_ms\":50"));
  const std::string plain =
      ErrorResponseJson("", Status::NotFound("unknown scenario"));
  EXPECT_FALSE(Contains(plain, "retry_after_ms"));
}

// -------------------------------------------------- admission control

TEST_F(ServerTest, ShedsBeyondQueueCapacityThenServesAdmitted) {
  ServerConfig config = BaseConfig("server_shed");
  config.queue_depth = 4;
  config.workers = 2;
  config.epsilon_budget = 100.0;
  auto server = DpkronServer::Create(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Workers not started: the queue fills deterministically. 2× capacity
  // arrives; exactly capacity admits, the rest shed at admission.
  ResponseSink sink;
  int admitted = 0, shed = 0;
  for (int i = 0; i < 8; ++i) {
    const Status status = server.value()->Submit(
        MakeRequest("alice", "shed_r" + std::to_string(i)), sink.Callback());
    if (status.ok()) {
      ++admitted;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(shed, 4);
  EXPECT_EQ(server.value()->stats().accepted, 4u);
  EXPECT_EQ(server.value()->stats().shed, 4u);
  EXPECT_EQ(server.value()->queue_size(), 4u);

  // The same rejection through the connection path carries the
  // retry-after hint.
  const std::string response =
      server.value()->HandleLine(RequestLine(MakeRequest("alice", "shed_r9")));
  EXPECT_TRUE(Contains(response, "\"code\":\"RESOURCE_EXHAUSTED\""));
  EXPECT_TRUE(Contains(response, "\"retry_after_ms\":50"));

  // Health stays observable with the queue full, and reports it.
  const std::string healthz = server.value()->HealthzJson();
  EXPECT_TRUE(Contains(healthz, "\"queue_depth\":4"));
  EXPECT_TRUE(Contains(healthz, "\"shed\":5"));

  // Load lifts: every admitted request completes with a real release.
  server.value()->Start();
  const auto responses = sink.WaitFor(4);
  ASSERT_EQ(responses.size(), 4u);
  for (const std::string& r : responses) {
    EXPECT_TRUE(Contains(r, "\"ok\":true")) << r;
    EXPECT_TRUE(Contains(r, "\"run\":{")) << r;
  }
  server.value()->Drain();
  EXPECT_EQ(server.value()->stats().completed, 4u);
}

// ------------------------------------------------ deadline checkpoints

TEST_F(ServerTest, QueueAgedRequestRefusedAtDequeueWithoutSpend) {
  FakeClock clock(/*now_ms=*/1000, /*auto_advance_ms=*/0);
  ServerConfig config = BaseConfig("server_deadline_queue");
  config.clock = &clock;
  config.workers = 1;
  auto server = DpkronServer::Create(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ReleaseRequest request = MakeRequest("alice", "dl_q1");
  request.deadline_ms = 10;
  ResponseSink sink;
  ASSERT_TRUE(server.value()->Submit(request, sink.Callback()).ok());

  // The request ages out while queued (workers not yet running).
  clock.Advance(50);
  server.value()->Start();
  const auto responses = sink.WaitFor(1);
  EXPECT_TRUE(Contains(responses[0], "\"code\":\"DEADLINE_EXCEEDED\""))
      << responses[0];
  EXPECT_TRUE(Contains(responses[0], "dequeue")) << responses[0];
  // Refused before compute ⇒ before the charge: nothing spent, the
  // analyst has no ledger entry at all.
  EXPECT_DOUBLE_EQ(server.value()->accountant().epsilon_spent("alice"), 0.0);
  EXPECT_EQ(server.value()->accountant().total_spends(), 0u);
  EXPECT_EQ(server.value()->stats().deadline_missed, 1u);
  server.value()->Drain();
}

TEST_F(ServerTest, DeadlineDuringComputeRefusedBeforeSpend) {
  // Every clock read advances 3ms: submit stamps deadline_at = now + 5,
  // the dequeue checkpoint still passes (3ms elapsed), the pre-spend
  // checkpoint lands at +6ms — past the deadline, after the compute,
  // BEFORE the charge.
  FakeClock clock(/*now_ms=*/0, /*auto_advance_ms=*/3);
  ServerConfig config = BaseConfig("server_deadline_compute");
  config.clock = &clock;
  config.workers = 1;
  auto server = DpkronServer::Create(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ReleaseRequest request = MakeRequest("alice", "dl_c1");
  request.deadline_ms = 5;
  ResponseSink sink;
  ASSERT_TRUE(server.value()->Submit(request, sink.Callback()).ok());
  server.value()->Start();
  const auto responses = sink.WaitFor(1);
  EXPECT_TRUE(Contains(responses[0], "\"code\":\"DEADLINE_EXCEEDED\""))
      << responses[0];
  EXPECT_TRUE(Contains(responses[0], "pre-spend")) << responses[0];
  EXPECT_DOUBLE_EQ(server.value()->accountant().epsilon_spent("alice"), 0.0);
  EXPECT_EQ(server.value()->accountant().total_spends(), 0u);
  EXPECT_FALSE(server.value()->accountant().SeenRequest("dl_c1"));
  server.value()->Drain();
}

// ------------------------------------------- idempotent retry + budget

TEST_F(ServerTest, RetriedRequestIdAcknowledgedWithoutSecondCharge) {
  ServerConfig config = BaseConfig("server_dedup");
  config.epsilon_budget = 100.0;
  auto server = DpkronServer::Create(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  server.value()->Start();

  const std::string line = RequestLine(MakeRequest("alice", "retry_1"));
  const std::string first = server.value()->HandleLine(line);
  EXPECT_TRUE(Contains(first, "\"ok\":true")) << first;
  EXPECT_TRUE(Contains(first, "\"deduped\":false")) << first;
  const double spent_once =
      server.value()->accountant().epsilon_spent("alice");
  EXPECT_GT(spent_once, 0.0);

  // The blind retry (client timed out after the spend became durable)
  // is acknowledged — same budget, deduped flag set.
  const std::string retry = server.value()->HandleLine(line);
  EXPECT_TRUE(Contains(retry, "\"ok\":true")) << retry;
  EXPECT_TRUE(Contains(retry, "\"deduped\":true")) << retry;
  EXPECT_DOUBLE_EQ(server.value()->accountant().epsilon_spent("alice"),
                   spent_once);
  EXPECT_EQ(server.value()->accountant().total_spends(), 1u);
  EXPECT_EQ(server.value()->stats().deduped, 1u);
  server.value()->Drain();
}

TEST_F(ServerTest, ExhaustedBudgetRefusesNewButAcksRetries) {
  ServerConfig config = BaseConfig("server_budget");
  config.epsilon_budget = 0.3;  // admits one 0.25-ε release, not two
  auto server = DpkronServer::Create(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  server.value()->Start();

  const std::string paid =
      server.value()->HandleLine(RequestLine(MakeRequest("alice", "b_1")));
  EXPECT_TRUE(Contains(paid, "\"ok\":true")) << paid;

  const std::string refused =
      server.value()->HandleLine(RequestLine(MakeRequest("alice", "b_2")));
  EXPECT_TRUE(Contains(refused, "\"code\":\"RESOURCE_EXHAUSTED\"")) << refused;
  EXPECT_TRUE(Contains(refused, "budget exhausted")) << refused;
  EXPECT_GE(server.value()->stats().budget_refused, 1u);

  // Another analyst's budget is untouched by alice's exhaustion.
  const std::string other =
      server.value()->HandleLine(RequestLine(MakeRequest("bob", "b_3")));
  EXPECT_TRUE(Contains(other, "\"ok\":true")) << other;

  // The retry of the PAID request is still acknowledged from the
  // exhausted budget — its first attempt bought the answer.
  const std::string retry =
      server.value()->HandleLine(RequestLine(MakeRequest("alice", "b_1")));
  EXPECT_TRUE(Contains(retry, "\"ok\":true")) << retry;
  EXPECT_TRUE(Contains(retry, "\"deduped\":true")) << retry;
  server.value()->Drain();
}

// ------------------------------------------------------ graceful drain

TEST_F(ServerTest, DrainAnswersEveryAdmittedRequestThenRefuses) {
  ServerConfig config = BaseConfig("server_drain");
  config.queue_depth = 16;
  config.workers = 2;
  config.epsilon_budget = 100.0;
  auto server = DpkronServer::Create(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ResponseSink sink;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(server.value()
                    ->Submit(MakeRequest("alice", "dr_" + std::to_string(i)),
                             sink.Callback())
                    .ok());
  }
  server.value()->Start();
  // SIGTERM semantics: Drain returns only after every admitted request
  // has been processed and answered.
  server.value()->Drain();
  ASSERT_EQ(sink.WaitFor(6).size(), 6u);
  EXPECT_EQ(server.value()->stats().completed, 6u);
  EXPECT_EQ(server.value()->queue_size(), 0u);
  EXPECT_EQ(server.value()->in_flight(), 0);

  // Post-drain: new work refused as UNAVAILABLE (retry elsewhere),
  // health still served and reporting the drain.
  ResponseSink late;
  const Status refused =
      server.value()->Submit(MakeRequest("alice", "dr_late"), late.Callback());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.value()->stats().drain_refused, 1u);
  const std::string healthz = server.value()->HealthzJson();
  EXPECT_TRUE(Contains(healthz, "\"draining\":true"));
  // Drain is idempotent.
  server.value()->Drain();
}

TEST_F(ServerTest, HealthzReportsBudgetsAndCache) {
  ServerConfig config = BaseConfig("server_healthz");
  auto server = DpkronServer::Create(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  server.value()->Start();
  const std::string ok =
      server.value()->HandleLine(RequestLine(MakeRequest("carol", "h_1")));
  ASSERT_TRUE(Contains(ok, "\"ok\":true")) << ok;

  const std::string healthz =
      server.value()->HandleLine("{\"type\":\"healthz\"}");
  EXPECT_TRUE(Contains(healthz, "\"type\":\"healthz\"")) << healthz;
  EXPECT_TRUE(Contains(healthz, "\"carol\":{\"epsilon_spent\":")) << healthz;
  EXPECT_TRUE(Contains(healthz, "\"epsilon_total\":1")) << healthz;
  EXPECT_TRUE(Contains(healthz, "\"accepted\":1")) << healthz;
  EXPECT_TRUE(Contains(healthz, "\"cache\":{\"enabled\":true")) << healthz;
  server.value()->Drain();
}

// ------------------------------------------------------- TCP loopback

// Reads one '\n'-terminated line from fd (the test-side client).
std::string ReadLine(int fd) {
  std::string line;
  char c;
  while (true) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return line;
    }
    if (c == '\n') return line;
    line.push_back(c);
  }
}

void SendLine(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::write(fd, framed.data() + sent, framed.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

TEST_F(ServerTest, TcpLoopbackServesReleasesAndSurvivesMalformedLines) {
  ServerConfig config = BaseConfig("server_tcp");
  config.epsilon_budget = 100.0;
  auto server = DpkronServer::Create(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value()->Listen(0).ok());
  ASSERT_GT(server.value()->port(), 0);
  server.value()->Start();

  std::atomic<bool> stop{false};
  std::thread acceptor(
      [&server, &stop] { server.value()->AcceptLoop(&stop); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.value()->port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  SendLine(fd, "{\"type\":\"healthz\"}");
  EXPECT_TRUE(Contains(ReadLine(fd), "\"type\":\"healthz\""));

  // A malformed line gets a structured refusal; the connection (and the
  // daemon) survive to serve the next request.
  SendLine(fd, "not json at all");
  EXPECT_TRUE(Contains(ReadLine(fd), "\"code\":\"INVALID_ARGUMENT\""));

  SendLine(fd, RequestLine(MakeRequest("tcp_analyst", "tcp_1")));
  const std::string release = ReadLine(fd);
  EXPECT_TRUE(Contains(release, "\"ok\":true")) << release.substr(0, 200);
  EXPECT_TRUE(Contains(release, "\"request_id\":\"tcp_1\""));

  ::close(fd);
  stop.store(true);
  acceptor.join();
  server.value()->Drain();
  EXPECT_DOUBLE_EQ(server.value()->accountant().epsilon_spent("tcp_analyst"),
                   0.25);
}

// ------------------------------------------------------- torture test

// The headline robustness property, end to end: cycles of concurrent
// analysts spending through a server whose accountant lives on a
// FaultInjectionEnv; between cycles the process either drains cleanly
// (SIGTERM) or "crashes" (unsynced bytes dropped — kill -9). Invariants
// after EVERY recovery:
//   1. recovered spends ⊇ acknowledged spends (per analyst, ε and ids);
//   2. no analyst's recovered spend exceeds the budget;
//   3. a replayed acknowledged request_id is acked deduped, uncharged.
TEST_F(ServerTest, TortureCrashRestartNeverLosesAckedSpendOrOverspends) {
  FaultInjectionEnv fault_env;
  ScopedEnvOverride scoped(&fault_env);

  const std::string acct = UniqueTempPath("server_torture", ".dpkacct");
  if (GetEnv()->FileExists(acct)) {
    ASSERT_TRUE(GetEnv()->RemoveFile(acct).ok());
  }
  const double kBudget = 100.0;
  const double kDeltaBudget = 0.5;  // must match every Open of this ledger
  const std::vector<std::string> analysts = {"alice", "bob", "carol"};

  std::mutex acked_mu;
  std::map<std::string, double> acked_epsilon;
  std::map<std::string, std::set<std::string>> acked_ids;
  std::string replay_line;  // one acked request to replay at the end

  // NOT BaseConfig: that helper deletes a pre-existing journal, and the
  // journal surviving across cycles is the whole point of this test.
  auto TortureConfig = [&] {
    ServerConfig config;
    config.accountant_path = acct;
    config.epsilon_budget = kBudget;
    config.delta_budget = kDeltaBudget;
    config.base.smoke = true;
    config.base.kronfit_iterations = 2;
    return config;
  };

  int next_request = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ServerConfig config = TortureConfig();
    config.workers = 3;
    auto server = DpkronServer::Create(config);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server.value()->Start();

    // Cycle 1 runs with a one-shot sync fault armed: one spend's
    // journal append fails and must be REFUSED on the wire (a response
    // the client never treats as a release) rather than acked-but-lost.
    if (cycle == 1) {
      fault_env.FailSyncs(2, Status::Unavailable("injected sync fault"));
    }

    std::vector<std::thread> threads;
    for (const std::string& analyst : analysts) {
      const int base = next_request;
      next_request += 2;
      threads.emplace_back([&, analyst, base] {
        for (int i = 0; i < 2; ++i) {
          ReleaseRequest request = MakeRequest(
              analyst, "t_" + std::to_string(base + i), /*epsilon=*/0.25);
          const std::string line = RequestLine(request);
          const std::string response = server.value()->HandleLine(line);
          if (Contains(response, "\"ok\":true") &&
              Contains(response, "\"deduped\":false")) {
            std::lock_guard<std::mutex> lock(acked_mu);
            acked_epsilon[analyst] += 0.25;
            acked_ids[analyst].insert(request.request_id);
            if (replay_line.empty()) replay_line = line;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    fault_env.ClearFaults();

    if (cycle % 2 == 0) {
      server.value()->Drain();  // SIGTERM path
    }
    // Destroy the server (drains if it hasn't), then simulate kill -9:
    // everything unsynced vanishes. Acked spends were fsynced before
    // their ack, so this can only shed refused/unacked tails.
    server = Status::Internal("destroyed");
    fault_env.DropUnsyncedData();

    // Recovery: reopen the ledger the way the next Create() would.
    auto recovered = PrivacyAccountant::Open(acct, kBudget, kDeltaBudget);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    for (const std::string& analyst : analysts) {
      const double spent = recovered.value()->epsilon_spent(analyst);
      EXPECT_GE(spent, acked_epsilon[analyst] - 1e-9)
          << "cycle " << cycle << ": lost acked spend for " << analyst;
      EXPECT_LE(spent, kBudget) << "over-budget after recovery";
      for (const std::string& id : acked_ids[analyst]) {
        EXPECT_TRUE(recovered.value()->SeenRequest(id))
            << "cycle " << cycle << ": lost acked request_id " << id;
      }
    }
  }

  // Across every crash and recovery, an acknowledged request replayed
  // against a fresh server instance is deduplicated, not re-charged.
  ASSERT_FALSE(replay_line.empty());
  auto server = DpkronServer::Create(TortureConfig());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  server.value()->Start();
  const double spent_before_replay =
      server.value()->accountant().epsilon_spent("alice") +
      server.value()->accountant().epsilon_spent("bob") +
      server.value()->accountant().epsilon_spent("carol");
  const std::string replayed = server.value()->HandleLine(replay_line);
  EXPECT_TRUE(Contains(replayed, "\"ok\":true")) << replayed;
  EXPECT_TRUE(Contains(replayed, "\"deduped\":true")) << replayed;
  EXPECT_DOUBLE_EQ(server.value()->accountant().epsilon_spent("alice") +
                       server.value()->accountant().epsilon_spent("bob") +
                       server.value()->accountant().epsilon_spent("carol"),
                   spent_before_replay);
  server.value()->Drain();
}

}  // namespace
}  // namespace dpkron
