#include "src/core/sweep.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/journal.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/common/stat_cache.h"

namespace dpkron {
namespace {

// ------------------------------------------------ checkpoint journal
//
// Record 0: magic + a fingerprint of the expanded matrix + cell count,
// so a checkpoint can only resume the sweep it was written by. Then one
// record per completed cell, in COMPLETION order (cells finish out of
// matrix order under the pool); the cell index is what merges them back
// into matrix order on resume.

constexpr char kCheckpointMagic[8] = {'D', 'P', 'K', 'S', 'W', 'P', 'C', '1'};

void MixOptionalU64(CacheKey& key, bool present, uint64_t value) {
  key.Mix(present ? 1 : 0).Mix(present ? value : 0);
}

void MixString(CacheKey& key, const std::string& value) {
  key.MixBytes(value.data(), value.size());
}

// Everything the run matrix is a function of. Two specs with the same
// fingerprint expand to cell-for-cell identical matrices.
uint64_t MatrixFingerprint(const SweepSpec& spec) {
  CacheKey key;
  key.Mix(spec.scenarios.size());
  for (const std::string& name : spec.scenarios) MixString(key, name);
  key.Mix(spec.datasets.size());
  for (const std::string& ref : spec.datasets) MixString(key, ref);
  key.Mix(spec.epsilons.size());
  for (double epsilon : spec.epsilons) key.MixDouble(epsilon);
  key.Mix(spec.seeds);
  const ScenarioOverrides& base = spec.base;
  MixOptionalU64(key, base.seed.has_value(), base.seed.value_or(0));
  key.Mix(base.epsilon.has_value() ? 1 : 0);
  key.MixDouble(base.epsilon.value_or(0.0));
  MixOptionalU64(key, base.realizations.has_value(),
                 base.realizations.value_or(0));
  MixOptionalU64(key, base.trials.has_value(), base.trials.value_or(0));
  MixOptionalU64(key, base.kronfit_iterations.has_value(),
                 base.kronfit_iterations.value_or(0));
  key.Mix(base.sweep_epsilons.has_value() ? 1 : 0);
  if (base.sweep_epsilons) {
    key.Mix(base.sweep_epsilons->size());
    for (double epsilon : *base.sweep_epsilons) key.MixDouble(epsilon);
  }
  key.Mix(base.smoke ? 1 : 0);
  key.Mix(base.dataset.has_value() ? 1 : 0);
  MixString(key, base.dataset.value_or(""));
  key.Mix(base.dataset_cache ? 1 : 0);
  return key.digest();
}

std::string CheckpointHeader(uint64_t fingerprint, uint64_t num_cells) {
  return RecordBuilder()
      .Str(std::string_view(kCheckpointMagic, sizeof(kCheckpointMagic)))
      .U64(fingerprint)
      .U64(num_cells)
      .str();
}

std::string EncodeCell(uint64_t index, const SweepRun& run,
                       const std::string& run_json) {
  return RecordBuilder()
      .U64(index)
      .U32(static_cast<uint32_t>(run.status.code()))
      .Str(run.status.message())
      .Double(run.epsilon)
      .U64(run.seed)
      .U32(run.seed_index)
      .Str(run.scenario)
      .Str(run.dataset)
      .Str(run_json)
      .str();
}

// The checkpoint state a resumed sweep starts from.
struct CheckpointState {
  // Per matrix index: the recorded cell, or empty run_json = pending.
  struct Cell {
    bool complete = false;
    Status status;
    double epsilon = 0.0;
    std::string run_json;
  };
  std::vector<Cell> cells;
  uint64_t valid_bytes = 0;  // append offset for the journal writer
  bool has_header = false;
};

Result<CheckpointState> LoadCheckpoint(const std::string& path,
                                       uint64_t fingerprint,
                                       size_t num_cells) {
  CheckpointState state;
  state.cells.resize(num_cells);
  auto read = ReadJournal(path);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kNotFound) return state;  // fresh
    return read.status();
  }
  const JournalRecovery& recovery = read.value();
  state.valid_bytes = recovery.valid_bytes;
  if (recovery.records.empty()) return state;

  RecordParser header(recovery.records.front());
  const std::string magic = header.Str();
  const uint64_t recorded_fingerprint = header.U64();
  const uint64_t recorded_cells = header.U64();
  if (!header.done() ||
      magic != std::string_view(kCheckpointMagic, sizeof(kCheckpointMagic))) {
    return Status::InvalidArgument(path + ": not a sweep checkpoint");
  }
  if (recorded_fingerprint != fingerprint || recorded_cells != num_cells) {
    return Status::InvalidArgument(
        path + ": checkpoint was written by a different sweep spec "
               "(refusing to merge foreign cells)");
  }
  state.has_header = true;
  for (size_t i = 1; i < recovery.records.size(); ++i) {
    RecordParser parser(recovery.records[i]);
    const uint64_t index = parser.U64();
    const StatusCode code = static_cast<StatusCode>(parser.U32());
    const std::string message = parser.Str();
    const double epsilon = parser.Double();
    parser.U64();  // seed — re-derived from the matrix
    parser.U32();  // seed_index
    parser.Str();  // scenario
    parser.Str();  // dataset
    std::string run_json = parser.Str();
    if (!parser.done() || index >= num_cells) {
      return Status::InvalidArgument(path + ": malformed checkpoint cell " +
                                     std::to_string(i));
    }
    CheckpointState::Cell& cell = state.cells[index];
    cell.complete = true;
    cell.status = Status(code, message);
    cell.epsilon = epsilon;
    cell.run_json = std::move(run_json);
  }
  return state;
}

// The per-run JSON fragment with wall time zeroed — the only
// non-deterministic field a run document carries, and meaningless
// across the process boundary a checkpoint exists to survive.
std::string StableRunJson(ScenarioOutput& output) {
  output.set_elapsed_seconds(0.0);
  JsonWriter json;
  output.AppendRunJson(json);
  return json.str();
}

struct RunPlan {
  const ScenarioSpec* scenario;
  ScenarioOverrides overrides;
};

// Validates the axes and expands the matrix. Axis order is fixed —
// scenario, dataset, ε, seed — and the runs vector IS the aggregation
// order: chunk i of the parallel section writes runs[i] and nothing
// else, so the document never depends on completion order. RunSweep and
// MergeSweepShards expand identically, which is what makes a merged
// document a function of the same matrix a single process executes.
Status ExpandMatrix(const SweepSpec& spec, std::vector<RunPlan>* plans,
                    std::vector<SweepRun>* runs) {
  if (spec.scenarios.empty()) {
    return Status::InvalidArgument("sweep needs at least one scenario");
  }
  if (spec.seeds == 0) {
    return Status::InvalidArgument("sweep needs at least one seed");
  }
  if (spec.seeds > kMaxSweepSeeds) {
    return Status::InvalidArgument(
        "sweep seeds must be <= " + std::to_string(kMaxSweepSeeds) +
        ", got " + std::to_string(spec.seeds));
  }
  std::vector<const ScenarioSpec*> scenario_specs;
  for (const std::string& name : spec.scenarios) {
    const ScenarioSpec* scenario = FindScenario(name);
    if (scenario == nullptr) {
      return Status::NotFound("unknown scenario in sweep: " + name);
    }
    scenario_specs.push_back(scenario);
  }
  for (const ScenarioSpec* scenario : scenario_specs) {
    const uint64_t base_seed =
        spec.base.seed ? *spec.base.seed : scenario->defaults.seed;
    const std::vector<uint64_t> seeds = SweepSeeds(base_seed, spec.seeds);
    // Collapsed single-entry axes: one pass with the base override left
    // as-is (unset = the scenario's own default).
    const size_t num_datasets = spec.datasets.empty() ? 1 : spec.datasets.size();
    const size_t num_epsilons = spec.epsilons.empty() ? 1 : spec.epsilons.size();
    for (size_t d = 0; d < num_datasets; ++d) {
      for (size_t e = 0; e < num_epsilons; ++e) {
        for (uint32_t j = 0; j < spec.seeds; ++j) {
          RunPlan plan{scenario, spec.base};
          if (!spec.datasets.empty()) plan.overrides.dataset = spec.datasets[d];
          if (!spec.epsilons.empty()) plan.overrides.epsilon = spec.epsilons[e];
          plan.overrides.seed = seeds[j];

          SweepRun run;
          run.scenario = scenario->name;
          run.dataset = plan.overrides.dataset ? *plan.overrides.dataset : "";
          run.seed = seeds[j];
          run.seed_index = j;
          runs->push_back(std::move(run));
          plans->push_back(std::move(plan));
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace

std::vector<uint64_t> SweepSeeds(uint64_t base_seed, uint32_t count) {
  std::vector<uint64_t> seeds;
  seeds.reserve(count);
  if (count == 0) return seeds;
  // Index 0 is the base itself: a 1-seed sweep is the plain run. Later
  // indices take the first output of independent Split streams, so the
  // axis inherits the stream-decorrelation properties of Rng::Split.
  seeds.push_back(base_seed);
  Rng root(base_seed);
  std::vector<Rng> streams = SplitRngStreams(root, count);
  for (uint32_t j = 1; j < count; ++j) seeds.push_back(streams[j].NextU64());
  return seeds;
}

Result<SweepResult> RunSweep(const SweepSpec& spec) {
  if (spec.max_attempts == 0 || spec.max_attempts > kMaxSweepRetries + 1) {
    return Status::InvalidArgument(
        "sweep needs 1 <= max_attempts <= " +
        std::to_string(kMaxSweepRetries + 1) + ", got " +
        std::to_string(spec.max_attempts));
  }
  if (spec.resume && spec.checkpoint_path.empty()) {
    return Status::InvalidArgument("resume requires a checkpoint path");
  }
  if (spec.shards == 0) {
    return Status::InvalidArgument("sweep needs shards >= 1");
  }
  if (spec.shard_id >= spec.shards) {
    return Status::InvalidArgument(
        "sweep shard id " + std::to_string(spec.shard_id) +
        " out of range for " + std::to_string(spec.shards) + " shards");
  }
  if (spec.shards > 1 && spec.checkpoint_path.empty()) {
    // The per-shard journal IS the shard's result (MergeSweepShards
    // reads nothing else); a worker without one would compute into the
    // void.
    return Status::InvalidArgument(
        "sharded sweep requires a checkpoint path (the shard's result "
        "journal)");
  }

  SweepResult result;
  std::vector<RunPlan> plans;
  const Status expanded = ExpandMatrix(spec, &plans, &result.runs);
  if (!expanded.ok()) return expanded;

  // ------------------------------------------------ checkpoint recovery
  // With a checkpoint: bind (or validate) the journal against this
  // matrix, mark recovered cells complete, and open the journal for
  // appending new completions. Checkpoint I/O failures AFTER this point
  // degrade to warnings (a sweep with a broken checkpoint still
  // computes); failures HERE are refusals — silently ignoring an
  // unreadable checkpoint on --resume would re-run and re-bill cells
  // the user believes are done.
  const bool checkpointing = !spec.checkpoint_path.empty();
  result.stable_document = checkpointing;
  std::unique_ptr<JournalWriter> checkpoint;
  std::mutex checkpoint_mu;
  if (checkpointing) {
    const uint64_t fingerprint = MatrixFingerprint(spec);
    CheckpointState state;
    if (spec.resume) {
      auto loaded =
          LoadCheckpoint(spec.checkpoint_path, fingerprint, plans.size());
      if (!loaded.ok()) return loaded.status();
      state = std::move(loaded).value();
    }
    // Not resuming (or fresh file): Open() at offset 0 truncates any
    // previous content, so a stale checkpoint can't leak old cells.
    auto writer = JournalWriter::Open(spec.checkpoint_path, state.valid_bytes);
    if (!writer.ok()) return writer.status();
    checkpoint = std::move(writer).value();
    if (!state.has_header) {
      const Status status =
          checkpoint->Append(CheckpointHeader(fingerprint, plans.size()));
      if (!status.ok()) return status;
    }
    for (size_t i = 0; i < state.cells.size(); ++i) {
      CheckpointState::Cell& cell = state.cells[i];
      if (!cell.complete) continue;
      SweepRun& run = result.runs[i];
      run.status = cell.status;
      run.epsilon = cell.epsilon;
      run.attempts = 0;  // restored, not executed
      run.checkpointed_run_json = std::move(cell.run_json);
      ++result.resumed_runs;
    }
  }

  // -------------------------------------------------------- execution
  // Runs fan across the shared pool, one per chunk; nested ParallelFor
  // calls inside scenario bodies degrade to serial per the parallel.h
  // contract. The StatCache turns the matrix's redundancy (same graph
  // under many ε/seeds) into hits; the caller's enabled-state is
  // restored afterwards (counters stay readable either way), so a
  // library caller keeps the disabled-by-default contract.
  StatCache& cache = StatCache::Instance();
  const bool cache_was_enabled = cache.enabled();
  const auto counters_before = cache.DomainCounters();
  cache.set_enabled(true);
  const auto start = std::chrono::steady_clock::now();
  auto execute = [&](size_t i) {
    SweepRun& run = result.runs[i];
    if (!run.checkpointed_run_json.empty()) return;  // restored cell
    if (spec.shards > 1 && i % spec.shards != spec.shard_id) {
      // Another worker's cell. The partition is a pure function of the
      // matrix index, so the fleet covers every cell exactly once with
      // zero claim traffic; cross-shard amortization happens below, in
      // the StatCache disk tier, not here.
      run.shard_skipped = true;
      run.attempts = 0;
      return;
    }
    // Text output suppressed: concurrent runs must not interleave on
    // stdout, and every row lands in the JSON document anyway. The
    // ScenarioOutput is built here (not during expansion) so its
    // construction cost is also off the serial path.
    for (uint32_t attempt = 1;; ++attempt) {
      run.output = ScenarioOutput(run.scenario, /*text_out=*/nullptr);
      run.status =
          RunScenario(*plans[i].scenario, plans[i].overrides, run.output);
      run.epsilon = run.output.params().epsilon;
      run.attempts = attempt;
      // Retry ONLY transient failures (kUnavailable). In particular
      // kResourceExhausted — full disk, exhausted privacy budget — is
      // terminal for this cell: re-running cannot create space or
      // budget, it just burns attempts.
      if (run.status.ok() || !IsRetryableStatusCode(run.status.code()) ||
          attempt >= spec.max_attempts) {
        break;
      }
      // Deterministic exponential backoff — 10, 20, 40, ... ms, capped.
      // The schedule depends only on the attempt number, never on wall
      // time or other cells, so retried sweeps stay reproducible.
      const uint64_t backoff_ms =
          std::min<uint64_t>(10ull << (attempt - 1), 500);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    if (checkpoint != nullptr) {
      // A cell still UNAVAILABLE after its retry budget is NOT
      // checkpointed: the failure is by definition transient, and a
      // --resume is exactly the retry that should re-attempt it.
      if (IsRetryableStatusCode(run.status.code())) return;
      const std::string run_json = StableRunJson(run.output);
      std::lock_guard<std::mutex> lock(checkpoint_mu);
      const Status journaled =
          checkpoint->Append(EncodeCell(i, run, run_json));
      if (!journaled.ok()) {
        std::fprintf(stderr,
                     "# warning: sweep checkpoint append failed (%s); "
                     "this cell will re-run on --resume\n",
                     journaled.ToString().c_str());
      }
    }
  };
  if (plans.size() == 1) {
    // A single cell gets no cross-run concurrency from the pool, and
    // entering a parallel region would serialize the scenario's own
    // nested ParallelFor kernels — run it directly so a 1-cell sweep is
    // never slower than the standalone --scenario invocation.
    execute(0);
  } else {
    ParallelForChunks(plans.size(), 1, [&](const ParallelChunk& chunk) {
      for (size_t i = chunk.begin; i < chunk.end; ++i) execute(i);
    });
  }
  if (checkpoint != nullptr) {
    const Status closed = checkpoint->Close();
    if (!closed.ok()) {
      std::fprintf(stderr, "# warning: sweep checkpoint close failed (%s)\n",
                   closed.ToString().c_str());
    }
    // Stable-document invariant: no freshly-executed cell keeps a wall
    // time (cells that went through StableRunJson are already zeroed;
    // this also covers retry-exhausted UNAVAILABLE cells, which skip
    // the checkpoint).
    for (SweepRun& run : result.runs) {
      if (run.checkpointed_run_json.empty()) {
        run.output.set_elapsed_seconds(0.0);
      }
    }
  }
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  cache.set_enabled(cache_was_enabled);
  result.cache_enabled = true;
  // Per-domain counter deltas: what THIS sweep hit and missed,
  // independent of prior activity in the process.
  for (const auto& [domain, after] : cache.DomainCounters()) {
    StatCache::Counters delta = after;
    for (const auto& [name, before] : counters_before) {
      if (name == domain) {
        delta.hits -= before.hits;
        delta.misses -= before.misses;
        delta.disk_hits -= before.disk_hits;
        delta.disk_misses -= before.disk_misses;
        break;
      }
    }
    if (delta.hits == 0 && delta.misses == 0) continue;
    result.cache_domains.emplace_back(domain, delta);
    result.cache_total.hits += delta.hits;
    result.cache_total.misses += delta.misses;
    result.cache_total.disk_hits += delta.disk_hits;
    result.cache_total.disk_misses += delta.disk_misses;
  }
  for (const SweepRun& run : result.runs) {
    if (!run.shard_skipped && !run.status.ok()) ++result.failed_runs;
  }
  return result;
}

std::string ShardCheckpointPath(const std::string& base, uint32_t shard_id) {
  return base + ".shard-" + std::to_string(shard_id);
}

Result<SweepResult> MergeSweepShards(
    const SweepSpec& spec, const std::vector<std::string>& shard_paths) {
  if (shard_paths.empty()) {
    return Status::InvalidArgument("sweep merge needs at least one shard");
  }
  SweepResult result;
  std::vector<RunPlan> plans;
  const Status expanded = ExpandMatrix(spec, &plans, &result.runs);
  if (!expanded.ok()) return expanded;
  const uint64_t fingerprint = MatrixFingerprint(spec);
  std::vector<bool> complete(result.runs.size(), false);
  for (const std::string& path : shard_paths) {
    // LoadCheckpoint enforces the fingerprint binding, so a journal from
    // a different spec (or a corrupted header) refuses here — exactly
    // the --resume rule, applied per shard.
    auto loaded = LoadCheckpoint(path, fingerprint, result.runs.size());
    if (!loaded.ok()) return loaded.status();
    CheckpointState& state = loaded.value();
    if (!state.has_header) {
      return Status::InvalidArgument(
          path + ": shard journal missing or empty (worker never ran?)");
    }
    for (size_t i = 0; i < state.cells.size(); ++i) {
      CheckpointState::Cell& cell = state.cells[i];
      if (!cell.complete) continue;
      SweepRun& run = result.runs[i];
      if (complete[i]) {
        // A cell recorded by two shards (overlapping assignment, or a
        // re-run worker) must agree byte-for-byte — that is the sweep
        // determinism contract, and a mismatch means one worker ran
        // under a different build/config. Refuse rather than pick.
        if (run.checkpointed_run_json != cell.run_json ||
            run.status.code() != cell.status.code()) {
          return Status::Internal(
              path + ": shards disagree on cell " + std::to_string(i) +
              " (determinism violation; were workers running the same "
              "build?)");
        }
        continue;
      }
      complete[i] = true;
      run.status = cell.status;
      run.epsilon = cell.epsilon;
      run.attempts = 0;
      run.checkpointed_run_json = std::move(cell.run_json);
      ++result.resumed_runs;
    }
  }
  size_t missing = 0;
  size_t first_missing = 0;
  for (size_t i = 0; i < complete.size(); ++i) {
    if (complete[i]) continue;
    if (missing == 0) first_missing = i;
    ++missing;
  }
  if (missing > 0) {
    return Status::FailedPrecondition(
        std::to_string(missing) + " of " + std::to_string(complete.size()) +
        " cells missing from the shard journals (first: cell " +
        std::to_string(first_missing) +
        "); re-run the incomplete shards (--resume) before merging");
  }
  // Every cell is checkpointed, so the document takes the stable form —
  // the same bytes a single-process checkpointed run emits.
  result.stable_document = true;
  for (const SweepRun& run : result.runs) {
    if (!run.status.ok()) ++result.failed_runs;
  }
  return result;
}

std::string SweepsJson(const SweepResult& result, int threads) {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("dpkron.sweeps.v1");
  json.Key("threads");
  json.Int(threads);
  // Same provenance block as ScenariosJson: context only, never part of
  // the frozen runs[] payload. Note the stable (checkpointed) document
  // keeps it too — dispatch level is a property of the machine, not of
  // one process execution, so resume on the same machine still
  // round-trips byte-identically.
  json.Key("simd");
  json.BeginObject();
  json.Key("dispatch");
  json.String(SimdLevelName(ActiveSimdLevel()));
  json.Key("detected");
  json.String(SimdLevelName(DetectedSimdLevel()));
  json.Key("cpu");
  json.String(CpuBrandString());
  json.EndObject();
  json.Key("stable");
  json.Bool(result.stable_document);
  // Stable form: wall time and cache counters are properties of one
  // process's execution (a resumed sweep legitimately has different
  // values), so the checkpointed document pins the time to 0 and omits
  // the counters — that's what makes interrupted-then-resumed output
  // byte-identical to an uninterrupted run.
  json.Key("elapsed_seconds");
  json.Number(result.stable_document ? 0.0 : result.elapsed_seconds);
  json.Key("failed_runs");
  json.UInt(result.failed_runs);
  // This sweep's own deltas, not the live process totals.
  json.Key("cache");
  if (result.stable_document) {
    json.BeginObject();
    json.Key("enabled");
    json.Bool(result.cache_enabled);
    json.EndObject();
  } else {
    AppendStatCacheJson(json, result.cache_enabled, result.cache_total,
                        result.cache_domains);
  }
  json.Key("runs");
  json.BeginArray();
  for (const SweepRun& run : result.runs) {
    json.BeginObject();
    json.Key("scenario");
    json.String(run.scenario);
    json.Key("dataset");
    json.String(run.dataset);
    json.Key("epsilon");
    json.Number(run.epsilon);
    json.Key("seed");
    json.UInt(run.seed);
    json.Key("seed_index");
    json.UInt(run.seed_index);
    // Only ever present in a shard WORKER's own document (the merged /
    // single-process document has no skipped cells): marks the cells
    // this worker deliberately left to its peers. Emitted only when set
    // so unsharded documents keep their exact historical bytes.
    if (run.shard_skipped) {
      json.Key("shard_skipped");
      json.Bool(true);
    }
    json.Key("ok");
    json.Bool(run.status.ok());
    json.Key("status");
    json.String(run.status.ToString());
    // The full per-run document — params, budgets (ledgers preserved),
    // exact_sensitivity, summaries, tables — exactly as the standalone
    // --scenario path emits it. A checkpointed cell splices the
    // fragment recorded at completion time; it is byte-identical to
    // what re-executing the cell would serialize (the sweep engine's
    // determinism contract is what makes resume legal at all).
    json.Key("run");
    if (!run.checkpointed_run_json.empty()) {
      json.Raw(run.checkpointed_run_json);
    } else {
      run.output.AppendRunJson(json);
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace dpkron
