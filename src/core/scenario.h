// Declarative experiment scenarios — the engine behind dpkron_experiments.
//
// Every evaluation the paper reports (Figs 1–4, Table 1, the ablations,
// the Sala-et-al. comparison) is a ScenarioSpec: a named, declarative
// description (datasets, privacy parameters, realizations, sweep axes)
// plus a run function, registered in a global
// registry the way datasets/registry names graphs. One runner executes
// any of them with shared flag parsing and uniform output: TSV via
// SeriesTable, human-readable summaries, and a structured JSON document
// with the PrivacyBudget ledger embedded per run.
//
// Adding a new experiment = registering one ScenarioSpec; no new binary.

#ifndef DPKRON_CORE_SCENARIO_H_
#define DPKRON_CORE_SCENARIO_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stat_cache.h"
#include "src/common/status.h"
#include "src/common/table_writer.h"
#include "src/datasets/registry.h"
#include "src/dp/privacy_budget.h"
#include "src/graph/graph.h"
#include "src/graph/graph_io.h"

namespace dpkron {

// Everything a scenario run is parameterized by. Specs carry their
// defaults (mirroring the deleted standalone binaries' hard-coded
// values); the runner's flags override per invocation.
struct ScenarioParams {
  uint64_t seed = 20120330;  // PAIS'12 workshop date
  // Privacy parameters — the paper's experiments all use (0.2, 0.01).
  double epsilon = 0.2;
  double delta = 0.01;
  // Realizations behind "Expected" series; 0 skips those series.
  uint32_t realizations = 0;
  // Independent mechanism draws per sweep point (ablations).
  uint32_t trials = 0;
  // KronFit gradient iterations (the slowest stage; 40 reproduces the
  // qualitative estimates well inside a CI budget).
  uint32_t kronfit_iterations = 40;
  // Declarative ε sweep axis; empty for single-operating-point scenarios.
  std::vector<double> sweep_epsilons;
  // Smoke mode: ResolveParams truncates the declarative axes (see
  // implementation) and scenario bodies shrink their non-declarative
  // ones (graph sizes, k ranges, dataset lists) — CI's fast path.
  bool smoke = false;
  // Dataset override: when non-empty, scenario bodies load this
  // GraphSource reference (a registry name, an edge-list path, or a
  // .dpkb path) instead of their spec-declared registry datasets —
  // the hook behind `dpkron_experiments --dataset`.
  std::string dataset;
  // An edge-list override is served from its mapped .dpkb sidecar
  // (GraphLoadOptions::use_cache). The source kind picks every other
  // backing: generators stay in RAM and a .dpkb override is always a
  // verified mapping, so this flag changes nothing for them.
  bool dataset_cache = false;
};

// The most realizations one run averages. Each realization holds a
// sampled graph and its panels, so RunScenario refuses more, as an
// INVALID_ARGUMENT, before any budget is charged.
inline constexpr uint32_t kMaxRealizations = 10000;

// Optional per-flag overrides of a spec's defaults.
struct ScenarioOverrides {
  std::optional<uint64_t> seed;
  std::optional<double> epsilon;
  std::optional<uint32_t> realizations;
  std::optional<uint32_t> trials;
  std::optional<uint32_t> kronfit_iterations;
  std::optional<std::vector<double>> sweep_epsilons;
  bool smoke = false;
  std::optional<std::string> dataset;
  bool dataset_cache = false;
};

// Spec defaults + overrides + smoke shrinking, in that order.
ScenarioParams ResolveParams(const ScenarioParams& defaults,
                             const ScenarioOverrides& overrides);

// The dataset reference a scenario body effectively runs on: the
// --dataset override when set, else `ref` (normally the spec's registry
// dataset name). Bodies that print the dataset name use this too, so
// the label always matches what LoadScenarioGraph loads.
const std::string& EffectiveDatasetRef(const std::string& ref,
                                       const ScenarioParams& params);

// Opens EffectiveDatasetRef(ref, params) through OpenGraph.
// Generator-backed sources consume `rng` exactly the way MakeDataset
// did, file-backed sources never touch it — so the RNG stream protocol
// (and therefore every fixed-seed output) is unchanged when no override
// is given. The handle owns whichever backing params chose (in-RAM or
// mmap); scenario bodies keep it alive and hand kernels its GraphView.
Result<GraphHandle> LoadScenarioGraph(const std::string& ref,
                                      const ScenarioParams& params, Rng& rng);

// The dataset list catalog-iterating scenarios (Table 1, the model-
// selection ablation) run over: the full paper registry normally, or a
// single synthesized entry describing the --dataset override (name =
// the reference, kind = the resolved GraphSource kind, generator =
// nullptr, paper columns zeroed).
std::vector<DatasetInfo> ScenarioDatasets(const ScenarioParams& params);

// Collects one scenario run's outputs: SeriesTables (TSV + JSON),
// summaries, privacy-budget ledgers, and free-form text. `text_out` may
// be null to suppress all human-readable output (tests).
class ScenarioOutput {
 public:
  explicit ScenarioOutput(std::string scenario, std::FILE* text_out = stdout);

  // printf to the text stream (not recorded in JSON).
  void Printf(const char* format, ...) __attribute__((format(printf, 2, 3)));

  // The table tagged "<scenario>/<panel>", created on first use.
  // `print` = false keeps a table out of the TSV text output (used when
  // a port already emits the legacy rows verbatim) — it still lands in
  // the JSON document.
  SeriesTable& Table(const std::string& panel, bool print = true);

  // Prints the block immediately and records it for JSON.
  void AddSummary(const SummaryBlock& block);

  // Records a ledger snapshot for JSON; `print` = true also prints it
  // (suppress inside sweep loops that would flood the text output).
  void RecordBudget(const PrivacyBudget& budget, bool print = true);

  // Records that the run computed a smooth-sensitivity profile. Its JSON
  // then reports "exact_sensitivity": true (every profile is exact); a
  // run that never computes one reports null.
  void RecordSensitivityProfile() { sensitivity_profile_ = true; }

  // Prints every printable table (RunScenario calls this at the end, the
  // position the standalone binaries printed their tables in).
  void PrintTables() const;

  const std::string& scenario() const { return scenario_; }
  std::FILE* text_out() const { return text_out_; }
  const ScenarioParams& params() const { return params_; }
  double elapsed_seconds() const { return elapsed_seconds_; }
  void set_params(const ScenarioParams& params) { params_ = params; }
  void set_elapsed_seconds(double seconds) { elapsed_seconds_ = seconds; }

  // Appends this run as one JSON object: name, params, elapsed time,
  // budgets (with full ledgers), summaries and tables.
  void AppendRunJson(JsonWriter& json) const;

 private:
  struct TableEntry {
    SeriesTable table;
    bool print;
  };

  std::string scenario_;
  std::FILE* text_out_;
  ScenarioParams params_;
  double elapsed_seconds_ = 0.0;
  std::deque<TableEntry> tables_;  // deque: stable references on growth
  std::vector<SummaryBlock> summaries_;
  std::vector<PrivacyBudget> budgets_;
  bool sensitivity_profile_ = false;
};

struct ScenarioSpec {
  std::string name;           // e.g. "fig1_ca_grqc"
  std::string legacy_binary;  // pre-engine bench binary, for migration
  std::string description;    // one line, shown by --list
  // datasets/registry names exercised ({} = scenario-internal graphs).
  std::vector<std::string> datasets;
  ScenarioParams defaults;
  std::function<Status(const ScenarioSpec&, const ScenarioParams&,
                       ScenarioOutput&)>
      run;
};

// Registers a spec; duplicate names are a programming error (CHECK).
void RegisterScenario(ScenarioSpec spec);

// All registered specs, in registration order.
const std::vector<ScenarioSpec>& AllScenarios();

// nullptr if no spec has that name.
const ScenarioSpec* FindScenario(const std::string& name);

// Resolves params, prints the run header, invokes spec.run, prints the
// tables, and records params + wall time in `output`.
Status RunScenario(const ScenarioSpec& spec,
                   const ScenarioOverrides& overrides,
                   ScenarioOutput& output);

// Appends StatCache counters as one JSON object ({enabled, hits, misses,
// disk_hits, disk_misses, domains: {...}}): the one writer of that block,
// shared by the sweep document (its own deltas) and, through the
// overload below, the scenario document and dpkrond's healthz (the
// process totals). `enabled` is passed by the caller because the
// document must report the state the runs executed under, not the live
// state at serialization time (RunSweep restores the caller's state
// before its result is serialized).
void AppendStatCacheJson(
    JsonWriter& json, bool enabled, const StatCache::Counters& total,
    const std::vector<std::pair<std::string, StatCache::Counters>>& domains);

// The same block with the process-wide StatCache totals.
void AppendStatCacheJson(JsonWriter& json, bool enabled);

// The BENCH_scenarios.json document:
// {schema, threads, cache: {...}, runs: [...]}.
std::string ScenariosJson(const std::vector<const ScenarioOutput*>& runs,
                          int threads);

}  // namespace dpkron

#endif  // DPKRON_CORE_SCENARIO_H_
