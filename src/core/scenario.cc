#include "src/core/scenario.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>

#include "src/common/macros.h"
#include "src/common/simd.h"
#include "src/common/stat_cache.h"
#include "src/datasets/graph_source.h"

namespace dpkron {

ScenarioParams ResolveParams(const ScenarioParams& defaults,
                             const ScenarioOverrides& overrides) {
  ScenarioParams params = defaults;
  if (overrides.seed) params.seed = *overrides.seed;
  if (overrides.epsilon) params.epsilon = *overrides.epsilon;
  if (overrides.realizations) params.realizations = *overrides.realizations;
  if (overrides.trials) params.trials = *overrides.trials;
  if (overrides.kronfit_iterations) {
    params.kronfit_iterations = *overrides.kronfit_iterations;
  }
  if (overrides.sweep_epsilons) params.sweep_epsilons = *overrides.sweep_epsilons;
  if (overrides.dataset) params.dataset = *overrides.dataset;
  params.dataset_cache = params.dataset_cache || overrides.dataset_cache;
  params.smoke = overrides.smoke;
  if (params.smoke) {
    // Central axis shrinking so every scenario's smoke run is uniformly
    // cheap; explicit flag overrides above already won (a user-supplied
    // sweep is intentional even under --smoke).
    if (!overrides.sweep_epsilons && params.sweep_epsilons.size() > 2) {
      params.sweep_epsilons.resize(2);
    }
    if (!overrides.realizations) {
      params.realizations = std::min(params.realizations, 2u);
    }
    if (!overrides.trials) params.trials = std::min(params.trials, 2u);
    if (!overrides.kronfit_iterations) {
      params.kronfit_iterations = std::min(params.kronfit_iterations, 5u);
    }
  }
  return params;
}

const std::string& EffectiveDatasetRef(const std::string& ref,
                                       const ScenarioParams& params) {
  return params.dataset.empty() ? ref : params.dataset;
}

Result<GraphHandle> LoadScenarioGraph(const std::string& ref,
                                      const ScenarioParams& params, Rng& rng) {
  GraphLoadOptions options;
  options.use_cache = params.dataset_cache;
  return OpenGraph(EffectiveDatasetRef(ref, params), rng, options);
}

std::vector<DatasetInfo> ScenarioDatasets(const ScenarioParams& params) {
  if (params.dataset.empty()) return PaperDatasets();
  auto source = ResolveGraphSource(params.dataset);
  // A registry-name override keeps its full registry entry (paper
  // metadata columns included); only file-backed overrides synthesize
  // a metadata-less stub.
  if (source.ok() && source.value().info != nullptr) {
    return {*source.value().info};
  }
  DatasetInfo info;
  info.name = params.dataset;
  info.paper_name = "-";
  info.kind =
      source.ok() ? GraphSourceKindName(source.value().kind) : "unresolved";
  return {std::move(info)};
}

ScenarioOutput::ScenarioOutput(std::string scenario, std::FILE* text_out)
    : scenario_(std::move(scenario)), text_out_(text_out) {}

void ScenarioOutput::Printf(const char* format, ...) {
  if (text_out_ == nullptr) return;
  va_list args;
  va_start(args, format);
  std::vfprintf(text_out_, format, args);
  va_end(args);
}

SeriesTable& ScenarioOutput::Table(const std::string& panel, bool print) {
  const std::string experiment = scenario_ + "/" + panel;
  for (TableEntry& entry : tables_) {
    if (entry.table.experiment() == experiment) return entry.table;
  }
  tables_.push_back(TableEntry{SeriesTable(experiment), print});
  return tables_.back().table;
}

void ScenarioOutput::AddSummary(const SummaryBlock& block) {
  if (text_out_ != nullptr) block.Print(text_out_);
  summaries_.push_back(block);
}

void ScenarioOutput::RecordBudget(const PrivacyBudget& budget, bool print) {
  if (print && text_out_ != nullptr) {
    std::fprintf(text_out_, "%s", budget.ToString().c_str());
  }
  budgets_.push_back(budget);
}

void ScenarioOutput::PrintTables() const {
  if (text_out_ == nullptr) return;
  for (const TableEntry& entry : tables_) {
    if (entry.print) entry.table.Print(text_out_);
  }
}

void ScenarioOutput::AppendRunJson(JsonWriter& json) const {
  json.BeginObject();
  json.Key("scenario");
  json.String(scenario_);
  json.Key("elapsed_seconds");
  json.Number(elapsed_seconds_);
  // true = the run computed a smooth-sensitivity profile (every profile
  // is exact); null = it computed none.
  json.Key("exact_sensitivity");
  if (sensitivity_profile_) {
    json.Bool(true);
  } else {
    json.Null();
  }

  json.Key("params");
  json.BeginObject();
  json.Key("seed");
  json.UInt(params_.seed);
  json.Key("epsilon");
  json.Number(params_.epsilon);
  json.Key("delta");
  json.Number(params_.delta);
  json.Key("realizations");
  json.UInt(params_.realizations);
  json.Key("trials");
  json.UInt(params_.trials);
  json.Key("kronfit_iterations");
  json.UInt(params_.kronfit_iterations);
  json.Key("sweep_epsilons");
  json.BeginArray();
  for (double epsilon : params_.sweep_epsilons) json.Number(epsilon);
  json.EndArray();
  json.Key("smoke");
  json.Bool(params_.smoke);
  json.Key("dataset");
  json.String(params_.dataset);
  json.Key("dataset_cache");
  json.Bool(params_.dataset_cache);
  json.EndObject();

  json.Key("budgets");
  json.BeginArray();
  for (const PrivacyBudget& budget : budgets_) {
    json.BeginObject();
    json.Key("epsilon_total");
    json.Number(budget.epsilon_total());
    json.Key("delta_total");
    json.Number(budget.delta_total());
    json.Key("epsilon_spent");
    json.Number(budget.epsilon_spent());
    json.Key("delta_spent");
    json.Number(budget.delta_spent());
    json.Key("ledger");
    json.BeginArray();
    for (const PrivacyBudget::LedgerEntry& entry : budget.ledger()) {
      json.BeginObject();
      json.Key("label");
      json.String(entry.label);
      json.Key("epsilon");
      json.Number(entry.epsilon);
      json.Key("delta");
      json.Number(entry.delta);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();

  json.Key("summaries");
  json.BeginArray();
  for (const SummaryBlock& block : summaries_) {
    json.BeginObject();
    json.Key("title");
    json.String(block.title());
    json.Key("items");
    json.BeginObject();
    for (const auto& [key, value] : block.items()) {
      json.Key(key);
      json.String(value);
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();

  json.Key("tables");
  json.BeginArray();
  for (const TableEntry& entry : tables_) {
    json.BeginObject();
    json.Key("experiment");
    json.String(entry.table.experiment());
    json.Key("rows");
    json.BeginArray();
    for (const SeriesTable::Row& row : entry.table.rows()) {
      json.BeginObject();
      json.Key("series");
      json.String(row.series);
      json.Key("x");
      json.Number(row.x);
      json.Key("y");
      json.Number(row.y);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
}

namespace {

std::vector<ScenarioSpec>& MutableRegistry() {
  static std::vector<ScenarioSpec>& registry = *new std::vector<ScenarioSpec>;
  return registry;
}

}  // namespace

void RegisterScenario(ScenarioSpec spec) {
  DPKRON_CHECK_MSG(FindScenario(spec.name) == nullptr,
                   ("duplicate scenario: " + spec.name).c_str());
  DPKRON_CHECK_MSG(static_cast<bool>(spec.run),
                   ("scenario without run function: " + spec.name).c_str());
  MutableRegistry().push_back(std::move(spec));
}

const std::vector<ScenarioSpec>& AllScenarios() { return MutableRegistry(); }

const ScenarioSpec* FindScenario(const std::string& name) {
  for (const ScenarioSpec& spec : MutableRegistry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Status RunScenario(const ScenarioSpec& spec,
                   const ScenarioOverrides& overrides,
                   ScenarioOutput& output) {
  const ScenarioParams params = ResolveParams(spec.defaults, overrides);
  output.set_params(params);
  // Degenerate privacy parameters are data a sweep grid can contain
  // (--sweep-epsilons=...,0). They must fail here, as a Status the sweep
  // report records, before any mechanism or budget constructor can
  // abort the whole batch on them.
  if (!(params.epsilon > 0.0)) {
    return Status::InvalidArgument(
        spec.name + ": epsilon must be positive, got " +
        std::to_string(params.epsilon));
  }
  // delta = 0 would also pass every budget constructor only to abort
  // inside the smooth-sensitivity mechanism; scenarios are (ε, δ)
  // pipelines, so require a usable δ here.
  if (!(params.delta > 0.0 && params.delta < 1.0)) {
    return Status::InvalidArgument(spec.name + ": delta must be in (0, 1), got " +
                                   std::to_string(params.delta));
  }
  if (params.realizations > kMaxRealizations) {
    return Status::InvalidArgument(
        spec.name + ": realizations must be <= " +
        std::to_string(kMaxRealizations) + ", got " +
        std::to_string(params.realizations));
  }
  output.Printf("# %s: seed=%llu epsilon=%g delta=%g realizations=%u"
                " trials=%u%s%s%s\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(params.seed), params.epsilon,
                params.delta, params.realizations, params.trials,
                params.dataset.empty() ? "" : " dataset=",
                params.dataset.c_str(), params.smoke ? " (smoke)" : "");
  const auto start = std::chrono::steady_clock::now();
  const Status status = spec.run(spec, params, output);
  output.set_elapsed_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  if (!status.ok()) return status;
  output.PrintTables();
  return Status::Ok();
}

namespace {

void AppendCacheCounters(JsonWriter& json,
                         const StatCache::Counters& counters) {
  json.Key("hits");
  json.UInt(counters.hits);
  json.Key("misses");
  json.UInt(counters.misses);
  // Warm/cold split of the misses that consulted the persistent tier
  // (both stay 0 when no disk cache is attached).
  json.Key("disk_hits");
  json.UInt(counters.disk_hits);
  json.Key("disk_misses");
  json.UInt(counters.disk_misses);
}

}  // namespace

void AppendStatCacheJson(
    JsonWriter& json, bool enabled, const StatCache::Counters& total,
    const std::vector<std::pair<std::string, StatCache::Counters>>& domains) {
  json.BeginObject();
  json.Key("enabled");
  json.Bool(enabled);
  AppendCacheCounters(json, total);
  json.Key("domains");
  json.BeginObject();
  for (const auto& [domain, counters] : domains) {
    json.Key(domain);
    json.BeginObject();
    AppendCacheCounters(json, counters);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
}

void AppendStatCacheJson(JsonWriter& json, bool enabled) {
  const StatCache& cache = StatCache::Instance();
  AppendStatCacheJson(json, enabled, cache.TotalCounters(),
                      cache.DomainCounters());
}

std::string ScenariosJson(const std::vector<const ScenarioOutput*>& runs,
                          int threads) {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("dpkron.scenarios.v1");
  json.Key("threads");
  json.Int(threads);
  // Provenance for perf comparisons: which kernel path produced this
  // document and on what CPU. The runs[] payload is bit-identical across
  // dispatch levels (the SIMD determinism contract), so these keys are
  // context, not inputs to any frozen-output comparison.
  json.Key("simd");
  json.BeginObject();
  json.Key("dispatch");
  json.String(SimdLevelName(ActiveSimdLevel()));
  json.Key("detected");
  json.String(SimdLevelName(DetectedSimdLevel()));
  json.Key("cpu");
  json.String(CpuBrandString());
  json.EndObject();
  json.Key("cache");
  AppendStatCacheJson(json, StatCache::Instance().enabled());
  json.Key("runs");
  json.BeginArray();
  for (const ScenarioOutput* run : runs) run->AppendRunJson(json);
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace dpkron
