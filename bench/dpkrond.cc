// dpkrond — the long-running private-release daemon (ROADMAP item 1).
//
//   dpkrond --port=7471 --workers=8 --queue-depth=64 \
//           --accountant=acct.journal --budgets=1.0,0.5
//
// Serves line-delimited JSON release requests over TCP (protocol in
// src/server/wire.h), enforcing per-analyst (ε, δ) budgets through the
// durable PrivacyAccountant. SIGTERM/SIGINT drain gracefully: stop
// accepting, finish every in-flight request, leave the journal synced,
// exit 0. kill -9 is the other supported exit: restart recovers by
// replaying the journal — an acknowledged spend is never lost, and a
// retried request_id is never double-charged.

#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/core/cli_flags.h"
#include "src/server/server.h"

namespace dpkron {
namespace {

std::atomic<bool> g_stop{false};

void HandleStopSignal(int /*signum*/) {
  g_stop.store(true, std::memory_order_relaxed);
}

int Main(int argc, char** argv) {
  bool help = false;
  uint16_t port = 7471;
  ServerConfig config;
  RuntimeFlags runtime;

  FlagTable flags("usage: dpkrond --accountant=PATH [options]");
  flags.Bool("--help", &help, "print this help and exit");
  flags.Number("--port", &port, uint16_t{0},
               "TCP port (default 7471; 0 = ephemeral, printed on startup)");
  flags.Number("--workers", &config.workers, 1, "request worker threads",
               kMaxThreads);
  flags.Number("--queue-depth", &config.queue_depth, size_t{1},
               "admission queue capacity; the excess is shed");
  flags.String("--accountant", "PATH", &config.accountant_path,
               "durable budget journal (required)");
  std::optional<std::vector<double>> budgets;
  flags.NumberList("--budgets", "EPS[,DELTA]", &budgets, 0.0,
                   "per-analyst budget (default 1.0,0.5), pinned at creation");
  flags.Number("--compact-threshold", &config.compact_threshold, uint64_t{0},
               "compact the journal on open beyond N records");
  flags.Bool("--no-dataset-cache", &config.base.dataset_cache,
             "no .dpkb sidecars for file datasets", false);
  AddRuntimeFlags(flags, &runtime, &config.base);
  if (!flags.ParseOrUsage(argc, argv)) return 2;
  if (help) {
    flags.PrintUsage(stdout);
    return 0;
  }
  if (budgets && budgets->size() > 2) {
    std::fprintf(stderr, "--budgets: expected EPS[,DELTA]\n");
    return 2;
  }
  if (budgets) config.epsilon_budget = budgets->front();
  if (budgets && budgets->size() == 2) config.delta_budget = budgets->back();
  if (config.accountant_path.empty()) {
    std::fprintf(stderr, "--accountant=PATH is required\n\n");
    flags.PrintUsage(stderr);
    return 2;
  }
  const Status applied = ApplyRuntimeFlags(runtime);
  if (!applied.ok()) {
    std::fprintf(stderr, "dpkrond: %s\n", applied.ToString().c_str());
    return 2;
  }

  auto server = DpkronServer::Create(config);
  if (!server.ok()) {
    std::fprintf(stderr, "dpkrond: open failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  const Status listening = server.value()->Listen(port);
  if (!listening.ok()) {
    std::fprintf(stderr, "dpkrond: %s\n", listening.ToString().c_str());
    return 1;
  }

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill the daemon

  server.value()->Start();
  std::printf("dpkrond: serving on port %d (%d workers, queue %zu, "
              "budget eps=%g delta=%g, accountant %s)\n",
              server.value()->port(), config.workers, config.queue_depth,
              config.epsilon_budget, config.delta_budget,
              config.accountant_path.c_str());
  std::fflush(stdout);

  server.value()->AcceptLoop(&g_stop);

  std::printf("dpkrond: draining (%zu queued, %d in flight)\n",
              server.value()->queue_size(), server.value()->in_flight());
  std::fflush(stdout);
  server.value()->Drain();
  std::printf("dpkrond: drained cleanly\n");
  return 0;
}

}  // namespace
}  // namespace dpkron

int main(int argc, char** argv) { return dpkron::Main(argc, argv); }
