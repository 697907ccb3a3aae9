// outofcore_bench — the out-of-core acceptance benchmark (CI artifact
// BENCH_outofcore.json).
//
//   outofcore_bench [--k=22] [--out=BENCH_outofcore.json] [--keep=PATH]
//
// One run: sample a k-level SKG with the edge-skip generator (millions
// of nodes in O(E·k)), serialize it as a .dpkb v3, reopen it via
// MmapGraph, and compute the full five-panel statistics twice — once
// from the in-RAM arenas, once from the mapping — with a PassCounter on
// each view. The run FAILS (exit 1) unless the two GraphStatistics are
// byte-identical and the two pass plans agree: mmap is an execution
// strategy, never a result change, and this binary is where CI holds
// that line at a scale (k = 22 ⇒ 4M nodes) the unit tests can't afford.
//
// The JSON artifact records the wall times of every stage (sample,
// write, open, both computes) plus the per-kernel pass counts — the
// open_seconds row is the O(header) claim made measurable, and the pass
// counts are the fused-plan trajectory across commits.

#include <unistd.h>

#include <cstdio>
#include <chrono>
#include <filesystem>
#include <string>

#include "src/common/rng.h"
#include "src/common/table_writer.h"
#include "src/core/cli_flags.h"
#include "src/core/release.h"
#include "src/graph/graph_io.h"
#include "src/skg/sampler.h"

namespace dpkron {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AppendPasses(JsonWriter& json, const PassCounter& passes) {
  json.BeginObject();
  for (const auto& [kernel, count] : passes.Snapshot()) {
    json.Key(kernel);
    json.UInt(count);
  }
  json.EndObject();
}

int Main(int argc, char** argv) {
  uint32_t k = 22;
  std::string out_path = "BENCH_outofcore.json";
  std::string dpkb_path;  // empty = temp file, removed on success

  FlagTable flags("usage: outofcore_bench [options]");
  flags.Number("--k", &k, 1u, "SKG Kronecker power (default 22)");
  flags.String("--out", "PATH", &out_path,
               "JSON artifact (default BENCH_outofcore.json)");
  flags.String("--keep", "DPKB_PATH", &dpkb_path,
               "keep the .dpkb here (default: a removed temp file)");
  if (!flags.ParseOrUsage(argc, argv)) return 2;
  const bool keep_dpkb = !dpkb_path.empty();
  if (dpkb_path.empty()) {
    dpkb_path = (std::filesystem::temp_directory_path() /
                 ("outofcore_bench_" + std::to_string(::getpid()) + ".dpkb"))
                    .string();
  }

  // The paper-shaped initiator at bench scale: ~2.15^k expected edge
  // placements (k = 22 ⇒ ~4.2M nodes, ~10M undirected edges — a CSR
  // comfortably past any cache but well inside a CI runner).
  const Initiator2 theta{0.9, 0.55, 0.15};
  SkgSampleOptions sample_options;
  sample_options.method = SkgSampleMethod::kEdgeSkip;

  std::fprintf(stderr, "# sampling edge-skip SKG, k=%u ...\n", k);
  Rng sample_rng(20260808);
  double t0 = Now();
  const Graph graph = SampleSkg(theta, k, sample_rng, sample_options);
  const double sample_seconds = Now() - t0;
  std::fprintf(stderr, "# sampled: %u nodes, %llu edges (%.2fs)\n",
               graph.NumNodes(),
               static_cast<unsigned long long>(graph.NumEdges()),
               sample_seconds);

  t0 = Now();
  const Status written = WriteBinaryGraph(graph, dpkb_path);
  const double write_seconds = Now() - t0;
  if (!written.ok()) {
    std::fprintf(stderr, "outofcore_bench: write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  const uint64_t dpkb_bytes = std::filesystem::file_size(dpkb_path);

  t0 = Now();
  auto mapped = MmapGraph::Open(dpkb_path);
  const double open_seconds = Now() - t0;
  if (!mapped.ok()) {
    std::fprintf(stderr, "outofcore_bench: mmap open failed: %s\n",
                 mapped.status().ToString().c_str());
    return 1;
  }
  if (mapped.value()->ContentFingerprint() != graph.ContentFingerprint()) {
    std::fprintf(stderr, "outofcore_bench: fingerprint mismatch\n");
    return 1;
  }

  // Bench-scale statistics options: the structure of the pass plan is
  // what's measured, not a paper figure, so the iterative families run
  // at reduced depth to keep CI wall time bounded.
  StatisticsOptions options;
  options.anf_trials = 8;
  options.num_singular_values = 8;
  options.num_network_values = 100;
  const ReleasePipeline pipeline(options);

  std::fprintf(stderr, "# computing statistics from RAM arenas ...\n");
  PassCounter ram_passes;
  Rng ram_rng(41);
  t0 = Now();
  const GraphStatistics from_ram = pipeline.ComputeEphemeral(
      GraphView(graph).WithPassCounter(&ram_passes), ram_rng);
  const double ram_seconds = Now() - t0;

  std::fprintf(stderr, "# computing statistics from the mmap ...\n");
  PassCounter mmap_passes;
  Rng mmap_rng(41);
  t0 = Now();
  const GraphStatistics from_mmap = pipeline.ComputeEphemeral(
      mapped.value()->view().WithPassCounter(&mmap_passes), mmap_rng);
  const double mmap_seconds = Now() - t0;

  // The acceptance assertions. operator== on GraphStatistics is exact
  // (double-for-double) equality.
  if (!(from_ram == from_mmap)) {
    std::fprintf(stderr,
                 "outofcore_bench: FAIL — statistics differ between in-RAM "
                 "and mmap backings\n");
    return 1;
  }
  if (ram_passes.Snapshot() != mmap_passes.Snapshot()) {
    std::fprintf(stderr,
                 "outofcore_bench: FAIL — pass plans differ between "
                 "backings\n");
    return 1;
  }
  if (ram_passes.count("node_stats") != 1) {
    std::fprintf(stderr,
                 "outofcore_bench: FAIL — fused node-stats family took %llu "
                 "passes, want 1\n",
                 static_cast<unsigned long long>(
                     ram_passes.count("node_stats")));
    return 1;
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("dpkron.outofcore_bench.v1");
  json.Key("k");
  json.UInt(k);
  json.Key("num_nodes");
  json.UInt(graph.NumNodes());
  json.Key("num_edges");
  json.UInt(graph.NumEdges());
  json.Key("dpkb_bytes");
  json.UInt(dpkb_bytes);
  json.Key("fingerprint");
  json.UInt(graph.ContentFingerprint());
  json.Key("statistics_identical");
  json.Bool(true);
  json.Key("seconds");
  json.BeginObject();
  json.Key("sample");
  json.Number(sample_seconds);
  json.Key("write_dpkb");
  json.Number(write_seconds);
  json.Key("mmap_open");
  json.Number(open_seconds);
  json.Key("compute_ram");
  json.Number(ram_seconds);
  json.Key("compute_mmap");
  json.Number(mmap_seconds);
  json.EndObject();
  json.Key("passes");
  AppendPasses(json, ram_passes);  // identical to mmap_passes, asserted
  json.EndObject();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "outofcore_bench: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(out, "%s\n", json.str().c_str());
  std::fclose(out);

  if (!keep_dpkb) std::filesystem::remove(dpkb_path);
  std::fprintf(stderr,
               "# ok: identical statistics (ram %.2fs, mmap %.2fs, open "
               "%.6fs, %.1f MiB .dpkb)\n",
               ram_seconds, mmap_seconds, open_seconds,
               double(dpkb_bytes) / double(1 << 20));
  return 0;
}

}  // namespace
}  // namespace dpkron

int main(int argc, char** argv) { return dpkron::Main(argc, argv); }
