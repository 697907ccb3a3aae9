// dpkron_experiments — the unified experiment runner.
//
// One binary drives every registered scenario (Figs 1–4, Table 1, the
// ablations, the dK-2 comparison) with shared flag parsing and uniform
// output: human-readable summaries + TSV to stdout, and an optional
// structured JSON document (--out=BENCH_scenarios.json) with the
// PrivacyBudget ledger embedded per run.
//
//   dpkron_experiments --list
//   dpkron_experiments --scenario=fig1_ca_grqc --realizations=100
//   dpkron_experiments --scenario=all --smoke --out=BENCH_scenarios.json
//
// Sweep mode executes the scenario × dataset × ε × seed matrix
// concurrently with cross-run stat caching and writes one
// BENCH_sweeps.json document:
//
//   dpkron_experiments --sweep --scenario=fig2_as20
//     --dataset=data/ca_test.edges --dataset-cache
//     --sweep-epsilons=0.1,0.2,0.5,1,2 --sweep-seeds=3
//     --cache-stats --out=BENCH_sweeps.json

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/env.h"
#include "src/common/parallel.h"
#include "src/common/stat_cache.h"
#include "src/core/cli_flags.h"
#include "src/core/scenario.h"
#include "src/core/sweep.h"
#include "src/datasets/graph_source.h"
#include "src/scenarios/scenarios.h"

namespace dpkron {
namespace {

void PrintList() {
  std::printf("registered scenarios (run with --scenario=<name>):\n\n");
  for (const ScenarioSpec& spec : AllScenarios()) {
    std::printf("  %-22s %s\n", spec.name.c_str(), spec.description.c_str());
    std::printf("  %-22s   was: %s", "",
                spec.legacy_binary.empty() ? "-"
                                           : spec.legacy_binary.c_str());
    if (!spec.datasets.empty()) {
      std::printf("; datasets:");
      for (const std::string& dataset : spec.datasets) {
        std::printf(" %s", dataset.c_str());
      }
    }
    std::printf("\n  %-22s   defaults: seed=%llu epsilon=%g delta=%g", "",
                static_cast<unsigned long long>(spec.defaults.seed),
                spec.defaults.epsilon, spec.defaults.delta);
    if (spec.defaults.realizations > 0) {
      std::printf(" realizations=%u", spec.defaults.realizations);
    }
    if (spec.defaults.trials > 0) {
      std::printf(" trials=%u", spec.defaults.trials);
    }
    if (!spec.defaults.sweep_epsilons.empty()) {
      std::printf(" sweep=[");
      for (size_t i = 0; i < spec.defaults.sweep_epsilons.size(); ++i) {
        std::printf("%s%g", i ? "," : "", spec.defaults.sweep_epsilons[i]);
      }
      std::printf("]");
    }
    std::printf("\n\n");
  }
}

void PrintDatasetList() {
  std::printf("registered datasets (generator-backed; use with --dataset"
              " or in scenario specs):\n\n");
  std::printf("  %-16s %-14s %-20s %8s %10s\n", "name", "kind", "paper name",
              "N", "E");
  for (const DatasetInfo& info : PaperDatasets()) {
    std::printf("  %-16s %-14s %-20s %8u %10llu\n", info.name.c_str(),
                info.kind.c_str(), info.paper_name.c_str(), info.paper_nodes,
                static_cast<unsigned long long>(info.paper_edges));
  }
  std::printf("\nany SNAP-style edge-list path or .dpkb binary path is also"
              " a valid --dataset\nreference; add --dataset-cache to parse"
              " the text once and binary-load it\nthereafter.\n");
}

std::vector<std::string> SplitCommaList(std::string_view value) {
  std::vector<std::string> items;
  std::string current;
  for (const char c : value) {
    if (c == ',') {
      if (!current.empty()) items.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) items.push_back(current);
  return items;
}

void PrintCacheStats() {
  const StatCache::Counters total = StatCache::Instance().TotalCounters();
  std::printf("# stat cache: %llu hits, %llu misses, %llu disk hits,"
              " %llu disk misses\n",
              static_cast<unsigned long long>(total.hits),
              static_cast<unsigned long long>(total.misses),
              static_cast<unsigned long long>(total.disk_hits),
              static_cast<unsigned long long>(total.disk_misses));
  for (const auto& [domain, counters] : StatCache::Instance().DomainCounters()) {
    std::printf("#   %-18s %llu hits, %llu misses, %llu disk hits,"
                " %llu disk misses\n",
                domain.c_str(),
                static_cast<unsigned long long>(counters.hits),
                static_cast<unsigned long long>(counters.misses),
                static_cast<unsigned long long>(counters.disk_hits),
                static_cast<unsigned long long>(counters.disk_misses));
  }
}

// Writes --out via temp file + fsync + rename (an interrupted run never
// leaves a truncated artifact); returns the exit code.
int WriteDocument(const std::string& path, const std::string& json,
                  size_t count, const char* noun) {
  const Status wrote = WriteFileDurable(path, json + "\n");
  if (!wrote.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 wrote.ToString().c_str());
    return 1;
  }
  std::printf("# wrote %s (%zu %s)\n", path.c_str(), count, noun);
  return 0;
}

int Main(int argc, char** argv) {
  RegisterAllScenarios();

  bool list = false;
  bool list_datasets = false;
  bool sweep_mode = false;
  bool cache_stats = false;
  bool resume = false;
  bool sweep_merge = false;
  uint32_t sweep_seeds = 1;
  uint32_t retries = 0;
  uint32_t sweep_shards = 1;
  std::optional<uint32_t> sweep_shard_id;
  std::string checkpoint_path;
  std::vector<std::string> names;
  std::string out_path;
  RuntimeFlags runtime;
  ScenarioOverrides overrides;

  FlagTable flags("usage: dpkron_experiments [--list] --scenario=NAME[,...]");
  flags.Bool("--list", &list, "show registered scenarios and exit");
  flags.Bool("--list-datasets", &list_datasets, "show datasets and exit");
  flags.Value(
      "--scenario", "NAMES",
      [&names](std::string_view text) {
        for (std::string& name : SplitCommaList(text)) {
          names.push_back(std::move(name));
        }
        return Status::Ok();
      },
      "comma-separated scenario names, or 'all'");
  flags.String("--dataset", "REF", &overrides.dataset,
               "a registry name, edge-list path or .dpkb path");
  // Full 64-bit range: sweep-derived seeds round-trip through --seed.
  flags.Number("--seed", &overrides.seed, uint64_t{0}, "scenario seed");
  flags.Number("--epsilon", &overrides.epsilon, 0.0, "privacy parameter");
  flags.Number("--realizations", &overrides.realizations, 0u,
               "realizations per expected statistic", kMaxRealizations);
  flags.Number("--trials", &overrides.trials, 1u, "trials per point");
  flags.NumberList("--sweep-epsilons", "A,B", &overrides.sweep_epsilons, 0.0,
                   "the epsilon sweep axis (--sweep: the ε grid)");
  flags.String("--out", "PATH", &out_path, "write the JSON document here");
  AddRuntimeFlags(flags, &runtime, &overrides);
  flags.Section("sweep mode (batch matrix with cross-run stat caching):");
  flags.Bool("--sweep", &sweep_mode, "run scenarios x datasets x ε x seeds");
  flags.Number("--sweep-seeds", &sweep_seeds, 1u, "seed-axis length",
               kMaxSweepSeeds);
  flags.Bool("--cache-stats", &cache_stats, "print StatCache counters");
  flags.String("--checkpoint", "PATH", &checkpoint_path, "per-cell journal");
  flags.Bool("--resume", &resume, "skip cells already in the --checkpoint");
  flags.Number("--retries", &retries, 0u, "retries of UNAVAILABLE cells",
               kMaxSweepRetries);
  flags.Section("multi-process sharding (requires --sweep --checkpoint):");
  flags.Number("--sweep-shards", &sweep_shards, 1u, "N-worker fleet");
  flags.Number("--sweep-shard-id", &sweep_shard_id, 0u, "this worker, < N");
  flags.Bool("--sweep-merge", &sweep_merge, "merge the N shard journals");
  if (!flags.ParseOrUsage(argc, argv)) return 2;

  if (list) {
    PrintList();
    return 0;
  }
  if (list_datasets) {
    PrintDatasetList();
    return 0;
  }
  const bool sharded = sweep_shards > 1 || sweep_merge;
  const std::pair<bool, const char*> refusals[] = {
      // Silently dropping the requested seed axis would hand back a
      // single run with no diagnostic.
      {sweep_seeds != 1 && !sweep_mode, "--sweep-seeds requires --sweep"},
      {(!checkpoint_path.empty() || resume || retries > 0) && !sweep_mode,
       "--checkpoint / --resume / --retries require --sweep"},
      {resume && checkpoint_path.empty(),
       "--resume requires --checkpoint=PATH"},
      {(sharded || sweep_shard_id) && !sweep_mode,
       "--sweep-shards / --sweep-shard-id / --sweep-merge require --sweep"},
      // Shard journals and the merge input set both derive from the
      // checkpoint base path: there is nothing to name them without it.
      {sharded && checkpoint_path.empty(),
       "--sweep-shards / --sweep-merge require --checkpoint=PATH (the"
       " shard-journal base)"},
      {sweep_merge && sweep_shard_id,
       "--sweep-merge is not a worker; drop --sweep-shard-id"},
      {sweep_merge && resume,
       "--sweep-merge does not execute cells; use --resume on the workers"
       " instead"},
      {!sweep_merge && sweep_shards > 1 && !sweep_shard_id,
       "--sweep-shards needs --sweep-shard-id=I (worker) or --sweep-merge"},
      {sweep_shard_id && *sweep_shard_id >= sweep_shards,
       "--sweep-shard-id must be < --sweep-shards"},
  };
  for (const auto& [refused, message] : refusals) {
    if (refused) {
      std::fprintf(stderr, "%s\n", message);
      return 2;
    }
  }
  // In sweep mode --dataset is the dataset axis (comma-separated refs);
  // in single-run mode it is one ref. Either way, fail fast on a bad
  // reference instead of deep inside a scenario.
  std::vector<std::string> dataset_axis;
  if (overrides.dataset) {
    dataset_axis = sweep_mode ? SplitCommaList(*overrides.dataset)
                              : std::vector<std::string>{*overrides.dataset};
    for (const std::string& ref : dataset_axis) {
      auto source = ResolveGraphSource(ref);
      if (!source.ok()) {
        std::fprintf(stderr, "--dataset: %s\n",
                     source.status().ToString().c_str());
        return 2;
      }
    }
  }
  if (names.empty()) {
    flags.PrintUsage(stderr);
    return 2;
  }
  if (names.size() == 1 && names[0] == "all") {
    names.clear();
    for (const ScenarioSpec& spec : AllScenarios()) {
      names.push_back(spec.name);
    }
  }
  const Status applied = ApplyRuntimeFlags(runtime);
  if (!applied.ok()) {
    std::fprintf(stderr, "%s\n", applied.ToString().c_str());
    return 2;
  }

  if (sweep_mode) {
    SweepSpec sweep;
    sweep.scenarios = names;
    sweep.datasets = dataset_axis;
    if (overrides.sweep_epsilons) {
      // Repurposed as the sweep's ε grid; scenarios keep their own
      // internal sweep axes untouched.
      sweep.epsilons = *overrides.sweep_epsilons;
      overrides.sweep_epsilons.reset();
    }
    sweep.seeds = sweep_seeds;
    sweep.base = overrides;
    sweep.base.dataset.reset();  // carried by the dataset axis instead
    sweep.checkpoint_path = checkpoint_path;
    sweep.resume = resume;
    sweep.max_attempts = retries + 1;
    if (sweep_merge) {
      // Merge mode: no cells execute here; combine the workers' shard
      // journals into the full-matrix document.
      std::vector<std::string> shard_paths;
      for (uint32_t i = 0; i < sweep_shards; ++i) {
        shard_paths.push_back(ShardCheckpointPath(checkpoint_path, i));
      }
      auto merged = MergeSweepShards(sweep, shard_paths);
      if (!merged.ok()) {
        std::fprintf(stderr, "sweep merge failed: %s\n",
                     merged.status().ToString().c_str());
        return 2;
      }
      std::printf("# sweep merge: %zu runs (%zu failed) from %u shards\n",
                  merged.value().runs.size(), merged.value().failed_runs,
                  sweep_shards);
      if (out_path.empty()) return 0;
      return WriteDocument(out_path,
                           SweepsJson(merged.value(), ParallelThreadCount()),
                           merged.value().runs.size(), "runs");
    }
    if (sweep_shards > 1) {
      sweep.shards = sweep_shards;
      sweep.shard_id = *sweep_shard_id;
      sweep.checkpoint_path =
          ShardCheckpointPath(checkpoint_path, sweep.shard_id);
    }
    auto result = RunSweep(sweep);
    if (!result.ok()) {
      std::fprintf(stderr, "sweep failed: %s\n",
                   result.status().ToString().c_str());
      return 2;
    }
    std::printf("# sweep: %zu runs (%zu failed, %zu resumed) in %.2fs\n",
                result.value().runs.size(), result.value().failed_runs,
                result.value().resumed_runs,
                result.value().elapsed_seconds);
    for (const SweepRun& run : result.value().runs) {
      if (!run.status.ok()) {
        std::printf("#   failed: %s eps=%g seed=%llu: %s\n",
                    run.scenario.c_str(), run.epsilon,
                    static_cast<unsigned long long>(run.seed),
                    run.status.ToString().c_str());
      }
    }
    if (cache_stats) PrintCacheStats();
    if (out_path.empty()) return 0;
    return WriteDocument(out_path,
                         SweepsJson(result.value(), ParallelThreadCount()),
                         result.value().runs.size(), "runs");
  }

  std::vector<ScenarioOutput> outputs;
  outputs.reserve(names.size());
  for (const std::string& name : names) {
    const ScenarioSpec* spec = FindScenario(name);
    if (spec == nullptr) {
      std::fprintf(stderr,
                   "unknown scenario: %s (use --list to see the registry)\n",
                   name.c_str());
      return 2;
    }
    outputs.emplace_back(spec->name, stdout);
    const Status status = RunScenario(*spec, overrides, outputs.back());
    if (!status.ok()) {
      std::fprintf(stderr, "scenario %s failed: %s\n", name.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("# %s done in %.2fs\n\n", name.c_str(),
                outputs.back().elapsed_seconds());
  }
  if (cache_stats) PrintCacheStats();

  if (out_path.empty()) return 0;
  std::vector<const ScenarioOutput*> runs;
  for (const ScenarioOutput& output : outputs) runs.push_back(&output);
  return WriteDocument(out_path, ScenariosJson(runs, ParallelThreadCount()),
                       runs.size(), "scenarios");
}

}  // namespace
}  // namespace dpkron

int main(int argc, char** argv) { return dpkron::Main(argc, argv); }
