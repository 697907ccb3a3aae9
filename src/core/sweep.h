// The batch sweep engine — the evaluation loop the paper implies run as
// one declarative job. conf_edbt_MirW12's experiments release the same
// input graph under many ε values, seeds and estimator routes; a
// SweepSpec names those axes (scenarios × datasets × ε-grid × seeds)
// and RunSweep expands them into a run matrix, executes it concurrently
// over the shared thread pool, and aggregates the per-run outputs in
// matrix order into one BENCH_sweeps.json document.
//
// Guarantees:
//   * Determinism / byte-identity. Run (scenario, dataset, ε, seed_j)
//     produces exactly the output a standalone
//     `--scenario=<name> --epsilon=ε --seed=seed_j --dataset=<ref>`
//     invocation produces: each run re-derives its streams from its own
//     seed, runs are independent, and aggregation is by matrix index —
//     never by completion order — so the document is identical at any
//     thread count (tests/sweep_test.cc enforces both).
//   * Amortization. RunSweep enables the process-wide StatCache, so the
//     deterministic per-graph quantities (profiles, KronFit fits,
//     degree sequences, triangle counts, statistics panels) are
//     computed once per distinct key instead of once per run; the
//     cache's hit/miss counters land in the document.
//   * Isolation of failures. A run that fails (degenerate ε, bad
//     dataset, exhausted budget) is recorded in the report with its
//     Status; it never aborts the batch.
//
// Seed axis: seed index 0 is the base seed itself (so a 1-seed sweep is
// exactly the plain scenario run); indices 1.. are drawn from Rng::Split
// streams of an Rng seeded with the base — published by SweepSeeds so a
// standalone run can reproduce any cell of the matrix.

#ifndef DPKRON_CORE_SWEEP_H_
#define DPKRON_CORE_SWEEP_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stat_cache.h"
#include "src/common/status.h"
#include "src/core/scenario.h"

namespace dpkron {

// The longest seed axis, and the most retries of a cell (so at most
// kMaxSweepRetries + 1 attempts), a sweep accepts.
inline constexpr uint32_t kMaxSweepSeeds = 10000;
inline constexpr uint32_t kMaxSweepRetries = 100;

// The declarative run matrix: every combination of the four axes is one
// run. Empty axes collapse to a single "spec default" entry.
struct SweepSpec {
  // Scenario names (must all be registered). Required, non-empty.
  std::vector<std::string> scenarios;
  // Dataset references (GraphSource refs); empty = each scenario's own
  // spec-declared datasets.
  std::vector<std::string> datasets;
  // ε grid; empty = each scenario's default (or base.epsilon) only.
  std::vector<double> epsilons;
  // Seed-axis length (1..kMaxSweepSeeds): seeds are derived per scenario
  // from its effective base seed via SweepSeeds.
  uint32_t seeds = 1;
  // Everything else (smoke, trials, realizations, kronfit iterations,
  // base seed, dataset cache) applies to every run. base.epsilon /
  // base.dataset act as the single-entry axis when the corresponding
  // axis above is empty; base.seed overrides the scenario's default
  // base seed.
  ScenarioOverrides base;

  // ------------------------------------------------- crash-safety knobs
  // When non-empty, every completed cell is journaled here (append-only,
  // checksummed, fsynced per record — see common/journal.h) as soon as
  // it finishes, and the emitted document switches to its STABLE form
  // (wall times zeroed, volatile cache counters omitted) so an
  // interrupted-then-resumed sweep serializes byte-identically to an
  // uninterrupted one.
  std::string checkpoint_path;
  // With `resume`, cells found complete in the checkpoint are not
  // re-executed; their recorded results merge back in matrix order. The
  // checkpoint binds itself to the expanded matrix (a fingerprint in
  // record 0), so resuming under a different spec refuses cleanly.
  // Without `resume`, an existing checkpoint is overwritten.
  bool resume = false;
  // Attempts per cell: a cell whose run fails with the TRANSIENT status
  // (UNAVAILABLE — injectable via FaultInjectionEnv, returned by flaky
  // storage) is retried up to this many times with deterministic
  // exponential backoff. Non-transient failures never retry.
  // 1..kMaxSweepRetries + 1.
  uint32_t max_attempts = 1;

  // ------------------------------------------------- multi-process shards
  // With shards > 1 this process is worker `shard_id` of a fleet of
  // `shards` started against the same spec: it executes only the cells
  // with matrix index ≡ shard_id (mod shards) — a deterministic
  // partition, no claim traffic — and journals them into its own
  // checkpoint (required; use ShardCheckpointPath for the conventional
  // name). Workers share amortization through the StatCache disk tier,
  // not through process memory. MergeSweepShards then combines the
  // per-shard journals into the full-matrix result whose document is
  // byte-identical to a single-process run of the same spec.
  uint32_t shards = 1;
  uint32_t shard_id = 0;
};

// One cell of the executed matrix.
struct SweepRun {
  std::string scenario;
  std::string dataset;  // "" = scenario's own datasets
  double epsilon = 0.0;  // resolved value this run used
  uint64_t seed = 0;
  uint32_t seed_index = 0;
  Status status;  // OK unless the run failed
  // Tables/summaries/budgets; text output suppressed (nullptr sink) —
  // concurrent runs must not interleave on stdout and the JSON document
  // carries every row.
  ScenarioOutput output{"", nullptr};
  // Executions this cell took (1 = first try; >1 only after transient
  // retries). 0 for a cell restored from a checkpoint.
  uint32_t attempts = 1;
  // Non-empty iff the cell was restored from a checkpoint: the exact
  // per-run JSON fragment recorded at completion time, spliced verbatim
  // into the document (`output` is empty for such cells).
  std::string checkpointed_run_json;
  // True iff this cell belongs to another shard of a sharded sweep: not
  // executed, not journaled, not counted as failed. Always false in the
  // merged / single-process result.
  bool shard_skipped = false;
};

struct SweepResult {
  std::vector<SweepRun> runs;  // matrix order: scenario, dataset, ε, seed
  double elapsed_seconds = 0.0;
  size_t failed_runs = 0;
  // The StatCache state the runs executed under (RunSweep always
  // enables it; recorded here because it restores the caller's state
  // before this result is serialized).
  bool cache_enabled = true;
  // Hit/miss DELTAS attributable to this sweep alone (counters
  // snapshotted around the execution), so back-to-back sweeps in one
  // process each report their own amortization, not the cumulative
  // process totals.
  StatCache::Counters cache_total;
  std::vector<std::pair<std::string, StatCache::Counters>> cache_domains;
  // Checkpointing state: `stable_document` selects the stable JSON form
  // (set iff the sweep ran with a checkpoint); `resumed_runs` counts
  // cells served from the checkpoint instead of executed.
  bool stable_document = false;
  size_t resumed_runs = 0;
};

// The seed axis for `base_seed`: index 0 = base_seed, indices 1..count-1
// drawn from independent Rng::Split streams of Rng(base_seed).
std::vector<uint64_t> SweepSeeds(uint64_t base_seed, uint32_t count);

// Expands and executes the matrix. Fails (without running anything) on
// an empty/unknown scenario list or seeds == 0; per-run failures are
// recorded in the result instead.
Result<SweepResult> RunSweep(const SweepSpec& spec);

// The conventional checkpoint-journal path for worker `shard_id` of a
// sharded sweep rooted at `base`: "<base>.shard-<i>". Workers and the
// merge step that derive paths the same way never need to exchange them.
std::string ShardCheckpointPath(const std::string& base, uint32_t shard_id);

// Combines the per-shard checkpoint journals of a sharded sweep into the
// full-matrix result, in matrix order. Every journal must carry this
// spec's matrix fingerprint (foreign journals refuse, exactly like
// --resume) and every cell must be present in at least one journal;
// cells recorded by several shards must agree byte-for-byte (the
// determinism contract). The result is a fully-checkpointed stable
// document: SweepsJson(merged) is byte-identical to a single-process
// checkpointed run of the same spec.
Result<SweepResult> MergeSweepShards(const SweepSpec& spec,
                                     const std::vector<std::string>& shard_paths);

// The BENCH_sweeps.json document: {schema: "dpkron.sweeps.v1", threads,
// stable, cache: {...}, runs: [{scenario, dataset, epsilon, seed,
// seed_index, ok, status, run: {...}}]}.
//
// Stable form (`result.stable_document`, i.e. checkpointed sweeps):
// wall times serialize as 0 and the cache block carries only `enabled` —
// those are properties of one process's execution, not of the run
// matrix, and a resumed sweep must serialize byte-identically to an
// uninterrupted one.
std::string SweepsJson(const SweepResult& result, int threads);

}  // namespace dpkron

#endif  // DPKRON_CORE_SWEEP_H_
