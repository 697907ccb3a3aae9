// perfbench — the C++ half of the repository benchmark (see README.md).
//
//   perfbench host
//   perfbench write-skg --k=K --sample-seed=S --id-seed=N --out=PATH
//   perfbench bigraph --edges=PATH [--ingests=N] [--backing=mmap|ram]
//   perfbench trace --workload=figures|bigraph|sweep|serve --seed=N
//                   --chrome=PATH [workload flags, see Main]
//
// `host` prints the provenance block. `write-skg` writes the benchmark's
// SNAP edge lists. `bigraph` is the timed bigraph job. `trace` replays one
// workload by calling each module's public functions in the order the
// scenario bodies call them, records a span around every call, prints
// the per-layer totals as JSON and writes the spans as Chrome trace-event
// JSON. Everything this binary prints on stdout is one JSON object.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/common/stat_cache.h"
#include "src/common/table_writer.h"
#include "src/core/private_estimator.h"
#include "src/core/release.h"
#include "src/core/scenario.h"
#include "src/core/sweep.h"
#include "src/datasets/registry.h"
#include "src/dp/degree_sequence.h"
#include "src/dp/privacy_accountant.h"
#include "src/dp/smooth_sensitivity.h"
#include "src/estimation/features.h"
#include "src/estimation/kronmom.h"
#include "src/graph/anf.h"
#include "src/graph/clustering.h"
#include "src/graph/degree.h"
#include "src/graph/graph_io.h"
#include "src/graph/hop_plot.h"
#include "src/graph/node_stats.h"
#include "src/kronfit/kronfit.h"
#include "src/linalg/lanczos.h"
#include "src/linalg/network_value.h"
#include "src/scenarios/scenarios.h"
#include "src/server/server.h"
#include "src/skg/sampler.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace dpkron {
namespace {

// The bigraph input: outofcore_bench's paper-shaped initiator and sample
// seed, at k = 20 (1,048,576 nodes, 2,228,544 edges).
constexpr Initiator2 kBenchTheta{0.9, 0.55, 0.15};
constexpr uint64_t kBigraphSampleSeed = 20260808;
// Algorithm 1 and the panels on bigraph use fixed streams, so Θ̃ and the
// statistics can be checked against a golden copy.
constexpr uint64_t kBigraphEstimateSeed = 20120330;
constexpr uint64_t kBigraphPanelSeed = 41;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ------------------------------------------------------------------ flags

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        bad_ = arg;
        continue;
      }
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  std::string Get(const std::string& name, const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  uint64_t U64(const std::string& name, uint64_t fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback
                               : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  const std::string& bad() const { return bad_; }

 private:
  std::map<std::string, std::string> values_;
  std::string bad_;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

// ------------------------------------------------------------------ spans

// One recorded call: [start, end] in seconds since the tracer's origin.
struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  uint64_t tid = 0;
};

// In-memory span store. Spans are appended when they close; the parent
// is the innermost open span on the opening thread, or an explicit id
// for work fanned out to pool workers.
class Tracer {
 public:
  static Tracer& Instance() {
    static Tracer tracer;
    return tracer;
  }
  double Elapsed() const { return Now() - origin_; }
  int64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(SpanRecord record) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(record));
  }
  // Suffix appended to every span name opened from now on ("_1t" while
  // replaying at one thread).
  void set_suffix(std::string suffix) { suffix_ = std::move(suffix); }
  const std::string& suffix() const { return suffix_; }
  std::vector<SpanRecord> Spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  Tracer() : origin_(Now()) {}
  const double origin_;
  std::atomic<int64_t> next_id_{0};
  std::string suffix_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

thread_local int64_t t_open_span = 0;

uint64_t ThreadTag() {
  return std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000;
}

class Span {
 public:
  explicit Span(const char* name) : Span(name, t_open_span) {}
  Span(const char* name, int64_t parent) {
    Tracer& tracer = Tracer::Instance();
    record_.name = std::string(name) + tracer.suffix();
    record_.id = tracer.NextId();
    record_.parent = parent;
    record_.tid = ThreadTag();
    saved_open_ = t_open_span;
    t_open_span = record_.id;
    record_.start = tracer.Elapsed();
  }
  ~Span() {
    Tracer& tracer = Tracer::Instance();
    record_.end = tracer.Elapsed();
    t_open_span = saved_open_;
    tracer.Add(std::move(record_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int64_t id() const { return record_.id; }
  double Seconds() const { return Tracer::Instance().Elapsed() - record_.start; }

 private:
  SpanRecord record_;
  int64_t saved_open_ = 0;
};

// Length of the union of [start, end) intervals.
double CoveredSeconds(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0, cur_start = 0.0, cur_end = -1.0;
  for (const auto& [start, end] : intervals) {
    if (start > cur_end) {
      if (cur_end > cur_start) covered += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (cur_end > cur_start) covered += cur_end - cur_start;
  return covered;
}

// Appends {"total": {name: seconds}, "self": {name: seconds},
// "calls": {name: n}} — inclusive time, self time (span minus the part
// its children cover) and call count per span name.
void AppendLayerTotals(JsonWriter& json, const std::vector<SpanRecord>& spans) {
  std::map<int64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) children[span.parent].emplace_back(span.start, span.end);
  }
  std::map<std::string, double> total, self;
  std::map<std::string, uint64_t> calls;
  for (const SpanRecord& span : spans) {
    const double duration = span.end - span.start;
    total[span.name] += duration;
    const auto it = children.find(span.id);
    self[span.name] +=
        duration - (it == children.end() ? 0.0 : CoveredSeconds(it->second));
    ++calls[span.name];
  }
  json.Key("total");
  json.BeginObject();
  for (const auto& [name, seconds] : total) {
    json.Key(name);
    json.Number(seconds);
  }
  json.EndObject();
  json.Key("self");
  json.BeginObject();
  for (const auto& [name, seconds] : self) {
    json.Key(name);
    json.Number(seconds);
  }
  json.EndObject();
  json.Key("calls");
  json.BeginObject();
  for (const auto& [name, count] : calls) {
    json.Key(name);
    json.UInt(count);
  }
  json.EndObject();
}

// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
// ("X") event per span, microsecond timestamps.
void WriteChromeTrace(const std::string& path, const std::string& workload,
                      uint64_t seed, const std::vector<SpanRecord>& spans) {
  JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit");
  json.String("ms");
  json.Key("traceEvents");
  json.BeginArray();
  for (const SpanRecord& span : spans) {
    json.BeginObject();
    json.Key("name");
    json.String(span.name);
    json.Key("ph");
    json.String("X");
    json.Key("ts");
    json.Number(span.start * 1e6);
    json.Key("dur");
    json.Number((span.end - span.start) * 1e6);
    json.Key("pid");
    json.Int(1);
    json.Key("tid");
    json.UInt(span.tid);
    json.Key("args");
    json.BeginObject();
    json.Key("id");
    json.Int(span.id);
    json.Key("parent");
    json.Int(span.parent);
    json.Key("workload");
    json.String(workload);
    json.Key("seed");
    json.UInt(seed);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::ofstream out(path);
  out << json.str() << "\n";
  if (!out) Die("cannot write " + path);
}

// ------------------------------------------------------- shared emitters

void AppendTheta(JsonWriter& json, const Initiator2& theta) {
  json.BeginArray();
  json.Number(theta.a);
  json.Number(theta.b);
  json.Number(theta.c);
  json.EndArray();
}

void AppendPairs(JsonWriter& json,
                 const std::vector<std::pair<double, double>>& pairs) {
  json.BeginArray();
  for (const auto& [x, y] : pairs) {
    json.BeginArray();
    json.Number(x);
    json.Number(y);
    json.EndArray();
  }
  json.EndArray();
}

void AppendSeries(JsonWriter& json, const std::vector<double>& values) {
  json.BeginArray();
  for (double v : values) json.Number(v);
  json.EndArray();
}

void AppendStatistics(JsonWriter& json, const GraphStatistics& stats) {
  json.BeginObject();
  json.Key("degree_histogram");
  AppendPairs(json, stats.degree_histogram);
  json.Key("hop_plot");
  AppendSeries(json, stats.hop_plot);
  json.Key("scree");
  AppendSeries(json, stats.scree);
  json.Key("network_value");
  AppendSeries(json, stats.network_value);
  json.Key("clustering_by_degree");
  AppendPairs(json, stats.clustering_by_degree);
  json.EndObject();
}

void AppendPasses(JsonWriter& json, const PassCounter& passes) {
  json.BeginObject();
  for (const auto& [label, count] : passes.Snapshot()) {
    json.Key(label);
    json.UInt(count);
  }
  json.EndObject();
}

// outofcore_bench's reduced panel depth: the bigraph panels measure the
// pass plan at scale, not a paper figure.
StatisticsOptions BigraphStatisticsOptions() {
  StatisticsOptions options;
  options.anf_trials = 8;
  options.num_singular_values = 8;
  options.num_network_values = 100;
  return options;
}

// ------------------------------------------------------------------ host

int RunHost() {
  JsonWriter json;
  json.BeginObject();
  json.Key("cpu");
  json.String(CpuBrandString());
  json.Key("nproc");
  json.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Key("l2_bytes");
  json.Int(::sysconf(_SC_LEVEL2_CACHE_SIZE));
  json.Key("l3_bytes");
  json.Int(::sysconf(_SC_LEVEL3_CACHE_SIZE));
  json.Key("simd");
  json.String(SimdLevelName(ActiveSimdLevel()));
  json.Key("build_type");
  json.String(PERFBENCH_BUILD_TYPE);
  json.Key("compiler");
  json.String(std::string("gcc ") + __VERSION__);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

// -------------------------------------------------------------- write-skg

// Writes an edge-skip SKG sample as a SNAP edge list. The sample depends
// only on --sample-seed; --id-seed relabels the nodes with a random
// permutation. The reader densifies ids in first-appearance
// order, so every id seed yields the same CSR — the file bytes vary with
// the workload seed while the loaded graph (and every golden output)
// does not.
int RunWriteSkg(const Flags& flags) {
  const uint32_t k = static_cast<uint32_t>(flags.U64("k", 0));
  const std::string out_path = flags.Get("out", "");
  if (k == 0 || k > 24 || out_path.empty()) Die("write-skg needs --k and --out");
  Rng sample_rng(flags.U64("sample-seed", kBigraphSampleSeed));
  SkgSampleOptions options;
  options.method = SkgSampleMethod::kEdgeSkip;
  const Graph graph = SampleSkg(kBenchTheta, k, sample_rng, options);

  // The file's ids are a seeded permutation of 0..n-1.
  Rng id_rng(flags.U64("id-seed", 1));
  std::vector<uint32_t> ids(graph.NumNodes());
  std::iota(ids.begin(), ids.end(), 0);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[id_rng.NextU64() % i]);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) Die("cannot write " + out_path);
  std::fprintf(out, "# perfbench SKG k=%u nodes=%u edges=%llu\n", k,
               graph.NumNodes(),
               static_cast<unsigned long long>(graph.NumEdges()));
  GraphView(graph).ForEachEdge([&](uint32_t u, uint32_t v) {
    std::fprintf(out, "%u\t%u\n", ids[u], ids[v]);
  });
  if (std::fclose(out) != 0) Die("cannot write " + out_path);
  std::printf("{\"nodes\":%u,\"edges\":%llu}\n", graph.NumNodes(),
              static_cast<unsigned long long>(graph.NumEdges()));
  return 0;
}

// ---------------------------------------------------------------- bigraph

// The timed bigraph job: N cold ingests (sidecar deleted before each),
// then Algorithm 1 and the five panels on the last handle.
int RunBigraph(const Flags& flags) {
  const std::string edges = flags.Get("edges", "");
  const uint64_t ingests = std::max<uint64_t>(1, flags.U64("ingests", 3));
  const std::string backing = flags.Get("backing", "mmap");
  if (edges.empty()) Die("bigraph needs --edges");
  if (backing != "mmap" && backing != "ram") Die("--backing is mmap or ram");
  StatCache::Instance().set_enabled(true);

  std::vector<double> ingest_seconds;
  GraphHandle handle;
  for (uint64_t i = 0; i < ingests; ++i) {
    std::filesystem::remove(BinaryCachePath(edges));
    handle = GraphHandle();
    const double t0 = Now();
    if (backing == "mmap") {
      auto loaded = ReadEdgeListMapped(edges);
      if (!loaded.ok()) Die("ingest: " + loaded.status().ToString());
      handle = std::move(loaded).value();
    } else {
      auto loaded = ReadEdgeList(edges);
      if (!loaded.ok()) Die("ingest: " + loaded.status().ToString());
      handle = GraphHandle(std::move(loaded).value());
    }
    ingest_seconds.push_back(Now() - t0);
  }
  if (backing == "mmap" && !handle.mmap_backed()) Die("sidecar not mapped");

  Rng estimate_rng(kBigraphEstimateSeed);
  double t0 = Now();
  auto estimate = EstimatePrivateSkg(handle, 0.2, 0.01, estimate_rng);
  const double estimate_seconds = Now() - t0;
  if (!estimate.ok()) Die("estimate: " + estimate.status().ToString());

  const ReleasePipeline pipeline(BigraphStatisticsOptions());
  Rng panel_rng(kBigraphPanelSeed);
  t0 = Now();
  const GraphStatistics stats = pipeline.Compute(handle, panel_rng);
  const double panels_seconds = Now() - t0;

  JsonWriter json;
  json.BeginObject();
  json.Key("backing");
  json.String(backing);
  json.Key("nodes");
  json.UInt(handle.NumNodes());
  json.Key("edges");
  json.UInt(handle.NumEdges());
  json.Key("ingest_s");
  AppendSeries(json, ingest_seconds);
  json.Key("estimate_s");
  json.Number(estimate_seconds);
  json.Key("panels_s");
  json.Number(panels_seconds);
  json.Key("cache");
  AppendStatCacheJson(json, StatCache::Instance().enabled());
  json.Key("theta");
  AppendTheta(json, estimate.value().theta);
  json.Key("statistics");
  AppendStatistics(json, stats);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

// ------------------------------------------------------ replayed layers

// Algorithm 1 exactly as EstimatePrivateSkg/ComputePrivateFeatures run
// it, with a span around each module call.
Initiator2 ReplayEstimator(GraphView graph, double epsilon, double delta,
                           Rng& rng, int64_t parent = t_open_span) {
  Span span("core.private_estimator", parent);
  const PrivateEstimatorOptions options;
  std::vector<double> noisy;
  {
    Span s("dp.degree_sequence");
    auto degrees =
        PrivateDegreeSequence(graph, epsilon / 2, rng, options.features.degrees);
    if (!degrees.ok()) Die("degree sequence: " + degrees.status().ToString());
    noisy = std::move(degrees).value();
  }
  PrivateTriangleResult triangles;
  {
    Span s("dp.triangle_count");
    triangles = PrivateTriangleCount(graph, epsilon / 2, delta, rng);
  }
  const GraphFeatures observed =
      ClampFeatures(FeaturesFromDegrees(noisy, triangles.value),
                    options.features.feature_floor);
  const uint32_t k = ChooseKroneckerOrder(graph.NumNodes());
  KronMomOptions kronmom = options.kronmom;
  const double floor = options.features.feature_floor;
  int active = int(kronmom.objective.use_edges) +
               int(kronmom.objective.use_hairpins) +
               int(kronmom.objective.use_triangles) +
               int(kronmom.objective.use_tripins);
  auto maybe_drop = [&active, floor](bool& enabled, double value) {
    if (enabled && value <= floor && active > 2) {
      enabled = false;
      --active;
    }
  };
  maybe_drop(kronmom.objective.use_triangles, observed.triangles);
  maybe_drop(kronmom.objective.use_tripins, observed.tripins);
  maybe_drop(kronmom.objective.use_hairpins, observed.hairpins);
  maybe_drop(kronmom.objective.use_edges, observed.edges);
  Initiator2 theta;
  {
    Span s("estimation.kronmom");
    theta = FitKronMomToFeatures(observed, k, kronmom).theta;
  }
  {
    Span s("estimation.features");
    (void)ComputeFeaturesCached(graph);
  }
  return theta;
}

// ReleasePipeline::ComputeImpl's plan, one span per family, same RNG
// order (node stats draw nothing; ANF, Lanczos, power iteration).
GraphStatistics ReplayPanels(GraphView graph, Rng& rng,
                             const StatisticsOptions& options) {
  GraphStatistics stats;
  NodeStats node_stats;
  {
    Span s("graph.node_stats");
    node_stats = ComputeNodeStats(graph);
  }
  for (const auto& [degree, count] : DegreeHistogramFromDegrees(node_stats.degrees)) {
    stats.degree_histogram.emplace_back(double(degree), double(count));
  }
  {
    Span s("graph.hop_plot");
    std::vector<uint64_t> hops;
    if (graph.NumNodes() <= options.exact_hop_plot_limit) {
      hops = ExactHopPlot(graph);
    } else {
      AnfOptions anf;
      anf.num_trials = options.anf_trials;
      hops = ApproxHopPlot(graph, rng, anf);
    }
    stats.hop_plot.assign(hops.begin(), hops.end());
  }
  const uint32_t k_singular =
      std::min(options.num_singular_values, graph.NumNodes());
  if (k_singular > 0 && graph.NumEdges() > 0) {
    Span s("linalg.scree");
    stats.scree = TopSingularValues(graph, k_singular, rng);
  }
  if (graph.NumEdges() > 0) {
    Span s("linalg.network_value");
    stats.network_value = NetworkValue(graph, rng);
    if (stats.network_value.size() > options.num_network_values) {
      stats.network_value.resize(options.num_network_values);
    }
  }
  for (const auto& [degree, cc] :
       ClusteringByDegreeFromParts(node_stats.degrees, node_stats.triangles)) {
    stats.clustering_by_degree.emplace_back(double(degree), cc);
  }
  return stats;
}

// The three initiators a figure fits, as the figure document prints them
// (its "fitted initiators" summary), so the replay can be checked
// against the product's own output.
struct FigureThetas {
  std::string kronfit, kronmom, private_theta;
};

// RunFigure's call sequence.
FigureThetas ReplayFigure(const ScenarioSpec& spec, const ScenarioParams& p) {
  Span scenario("core.scenario");
  Rng rng(p.seed);
  GraphHandle original;
  {
    Span s("datasets.generate");
    auto loaded = LoadScenarioGraph(
        EffectiveDatasetRef(spec.datasets.front(), p), p, rng);
    if (!loaded.ok()) Die("load " + spec.name + ": " + loaded.status().ToString());
    original = std::move(loaded).value();
  }
  const uint32_t k = ChooseKroneckerOrder(original.NumNodes());
  Initiator2 kronmom;
  {
    Span s("estimation.kronmom");
    kronmom = FitKronMom(original).theta;
  }
  KronFitOptions kf_options;
  kf_options.iterations = p.kronfit_iterations;
  Rng kronfit_rng = rng.Split();
  Initiator2 kronfit;
  {
    Span s("kronfit.fit");
    kronfit = FitKronFitCached(original, kronfit_rng, kf_options).theta;
  }
  Rng private_rng = rng.Split();
  const Initiator2 private_theta =
      ReplayEstimator(original, p.epsilon, p.delta, private_rng);

  const ReleasePipeline pipeline;
  Rng stats_rng = rng.Split();
  ReplayPanels(original, stats_rng, pipeline.options());
  for (const Initiator2& theta : {kronfit, kronmom, private_theta}) {
    Graph sample;
    {
      Span s("skg.sample");
      sample = pipeline.Sample(theta, k, stats_rng);
    }
    ReplayPanels(sample, stats_rng, pipeline.options());
  }
  if (p.realizations > 0) {
    for (const Initiator2& theta : {kronfit, kronmom}) {
      Span s("core.expected");
      (void)pipeline.Expected(theta, k, p.realizations, stats_rng);
    }
    Span s("core.expected");
    (void)pipeline.ExpectedEphemeral(private_theta, k, p.realizations,
                                     stats_rng);
  }
  return {kronfit.ToString(), kronmom.ToString(), private_theta.ToString()};
}

// One Table 1 run's "parameters" table as name -> value, the names being
// the table's series ("<dataset>/<estimator>/<a|b|c>").
using Table1Parameters = std::map<std::string, double>;

// RunTable1's call sequence for one run (a sweep cell or a serve request).
Table1Parameters ReplayTable1Cell(const ScenarioParams& p, int64_t parent) {
  Span cell("core.table1_cell", parent);
  Table1Parameters parameters;
  auto record = [&parameters](const std::string& dataset, const char* series,
                              const Initiator2& theta) {
    const std::string prefix = dataset + "/" + series + "/";
    parameters[prefix + "a"] = theta.a;
    parameters[prefix + "b"] = theta.b;
    parameters[prefix + "c"] = theta.c;
  };
  Rng rng(p.seed);
  int dataset_index = 0;
  for (const DatasetInfo& info : ScenarioDatasets(p)) {
    if (p.smoke && dataset_index >= 2) break;
    Rng dataset_rng = rng.Split();
    GraphHandle graph;
    {
      // Registry datasets are generated; a file dataset is loaded.
      Span s(info.generator != nullptr ? "datasets.generate" : "graph.load");
      auto loaded = LoadScenarioGraph(info.name, p, dataset_rng);
      if (!loaded.ok()) Die("load " + info.name + ": " + loaded.status().ToString());
      graph = std::move(loaded).value();
    }
    Initiator2 kronmom;
    {
      Span s("estimation.kronmom");
      kronmom = FitKronMom(graph).theta;
    }
    KronFitOptions kf_options;
    kf_options.iterations = p.kronfit_iterations;
    Rng kronfit_rng = rng.Split();
    Initiator2 kronfit;
    {
      Span s("kronfit.fit");
      kronfit = FitKronFitCached(graph, kronfit_rng, kf_options).theta;
    }
    // Three private trials; the table reports the one with the median
    // distance to KronMom.
    std::vector<std::pair<double, Initiator2>> trials;
    for (int t = 0; t < 3; ++t) {
      Rng private_rng = rng.Split();
      const Initiator2 theta =
          ReplayEstimator(graph, p.epsilon, p.delta, private_rng);
      trials.emplace_back(MaxAbsDifference(theta, kronmom), theta);
    }
    std::sort(trials.begin(), trials.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    record(info.name, "kronfit", kronfit);
    record(info.name, "kronmom", kronmom);
    record(info.name, "private", trials[1].second);
    ++dataset_index;
  }
  return parameters;
}

void AppendParameters(JsonWriter& json, const Table1Parameters& parameters) {
  json.BeginObject();
  for (const auto& [name, value] : parameters) {
    json.Key(name);
    json.Number(value);
  }
  json.EndObject();
}

ScenarioParams ParamsFor(const std::string& scenario,
                         const ScenarioOverrides& overrides) {
  const ScenarioSpec* spec = FindScenario(scenario);
  if (spec == nullptr) Die("unknown scenario " + scenario);
  return ResolveParams(spec->defaults, overrides);
}

std::vector<double> ParseDoubles(const std::string& list) {
  std::vector<double> values;
  size_t start = 0;
  while (start < list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    values.push_back(std::atof(list.substr(start, comma - start).c_str()));
    start = comma + 1;
  }
  return values;
}

// ------------------------------------------------------------- trace: *

void TraceFigures(const Flags& flags, JsonWriter& json) {
  const int nproc = static_cast<int>(flags.U64("threads", 4));
  StatCache::Instance().set_enabled(true);
  const char* names[] = {"fig1_ca_grqc", "fig2_as20", "fig3_ca_hepth",
                         "fig4_synthetic"};
  ScenarioOverrides overrides;
  overrides.smoke = true;
  const int threads[2] = {nproc, 1};
  const char* thetas_keys[2] = {"thetas", "thetas_1t"};
  for (int pass = 0; pass < 2; ++pass) {
    // A fresh memo per pass, as each pass is its own process in the
    // timed run.
    StatCache::Instance().Clear();
    SetParallelThreadCount(threads[pass]);
    Tracer::Instance().set_suffix(pass == 0 ? "" : "_1t");
    json.Key(thetas_keys[pass]);
    json.BeginObject();
    for (const char* name : names) {
      const FigureThetas thetas =
          ReplayFigure(*FindScenario(name), ParamsFor(name, overrides));
      json.Key(name);
      json.BeginObject();
      json.Key("KronFit");
      json.String(thetas.kronfit);
      json.Key("KronMom");
      json.String(thetas.kronmom);
      json.Key("Private");
      json.String(thetas.private_theta);
      json.EndObject();
    }
    json.EndObject();
  }
  Tracer::Instance().set_suffix("");
}

void TraceBigraph(const Flags& flags, JsonWriter& json) {
  const std::string edges = flags.Get("edges", "");
  if (edges.empty()) Die("trace bigraph needs --edges");
  StatCache::Instance().set_enabled(true);
  const std::string dpkb = edges + ".trace.dpkb";
  std::shared_ptr<MmapGraph> mapped;
  {
    Span ingest("graph.ingest");
    Graph graph;
    {
      Span s("graph.parse");
      auto parsed = ReadEdgeList(edges);
      if (!parsed.ok()) Die("parse: " + parsed.status().ToString());
      graph = std::move(parsed).value();
    }
    {
      Span s("graph.sidecar_write");
      const Status written = WriteBinaryGraph(graph, dpkb);
      if (!written.ok()) Die("sidecar: " + written.ToString());
    }
    {
      Span s("graph.map_open");
      auto opened = MmapGraph::Open(dpkb);
      if (!opened.ok()) Die("map: " + opened.status().ToString());
      mapped = std::move(opened).value();
    }
  }
  PassCounter passes;
  const GraphView view = mapped->view().WithPassCounter(&passes);
  Rng estimate_rng(kBigraphEstimateSeed);
  const Initiator2 theta = ReplayEstimator(view, 0.2, 0.01, estimate_rng);
  Rng panel_rng(kBigraphPanelSeed);
  GraphStatistics stats;
  PassCounter panel_passes;
  {
    Span s("core.panels");
    stats = ReplayPanels(mapped->view().WithPassCounter(&panel_passes),
                         panel_rng, BigraphStatisticsOptions());
  }
  std::filesystem::remove(dpkb);
  json.Key("passes");
  AppendPasses(json, passes);
  json.Key("panel_passes");
  AppendPasses(json, panel_passes);
  json.Key("theta");
  AppendTheta(json, theta);
  json.Key("statistics");
  AppendStatistics(json, stats);
}

void TraceSweep(const Flags& flags, JsonWriter& json) {
  const std::string disk = flags.Get("disk-cache", "");
  if (disk.empty()) Die("trace sweep needs --disk-cache");
  const std::vector<double> epsilons = ParseDoubles(flags.Get("epsilons", ""));
  const uint32_t seeds = static_cast<uint32_t>(flags.U64("seeds", 3));
  const ScenarioSpec* spec = FindScenario("table1_parameters");
  std::vector<ScenarioParams> cells;
  for (double epsilon : epsilons) {
    for (uint64_t seed : SweepSeeds(spec->defaults.seed, seeds)) {
      ScenarioOverrides overrides;
      overrides.epsilon = epsilon;
      overrides.seed = seed;
      cells.push_back(ResolveParams(spec->defaults, overrides));
    }
  }
  StatCache& cache = StatCache::Instance();
  cache.set_enabled(true);
  const char* pass_names[] = {"core.sweep_cold", "core.sweep_warm"};
  std::vector<Table1Parameters> parameters[2];
  for (int pass = 0; pass < 2; ++pass) {
    // The warm pass starts from an empty memo over the disk tier the
    // cold pass wrote, as a fresh process would.
    cache.Clear();
    const Status attached = cache.AttachDiskTier(disk);
    if (!attached.ok()) Die("disk cache: " + attached.ToString());
    Span span(pass_names[pass]);
    const int64_t parent = span.id();
    parameters[pass].resize(cells.size());
    // Cells fan across the pool one per chunk, as RunSweep runs them.
    ParallelForChunks(cells.size(), 1, [&](const ParallelChunk& chunk) {
      for (size_t i = chunk.begin; i < chunk.end; ++i) {
        parameters[pass][i] = ReplayTable1Cell(cells[i], parent);
      }
    });
  }
  cache.DetachDiskTier();
  json.Key("cells");
  json.BeginArray();
  for (size_t i = 0; i < cells.size(); ++i) {
    json.BeginObject();
    json.Key("epsilon");
    json.Number(cells[i].epsilon);
    json.Key("seed");
    json.UInt(cells[i].seed);
    json.Key("cold");
    AppendParameters(json, parameters[0][i]);
    json.Key("warm");
    AppendParameters(json, parameters[1][i]);
    json.EndObject();
  }
  json.EndArray();
}

// One line of the serve request list: "<client>\t<request json>".
struct ServeLine {
  int client = 0;
  std::string line;
};

std::vector<ServeLine> ReadServeLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<ServeLine> lines;
  std::string text;
  while (std::getline(in, text)) {
    const size_t tab = text.find('\t');
    if (tab == std::string::npos) continue;
    lines.push_back({std::atoi(text.substr(0, tab).c_str()), text.substr(tab + 1)});
  }
  return lines;
}

void TraceServe(const Flags& flags, JsonWriter& json) {
  const std::string requests_path = flags.Get("requests", "");
  const std::string workdir = flags.Get("workdir", "");
  const int workers = static_cast<int>(flags.U64("threads", 4));
  if (requests_path.empty() || workdir.empty()) {
    Die("trace serve needs --requests and --workdir");
  }
  const std::vector<ServeLine> lines = ReadServeLines(requests_path);
  int clients = 0;
  for (const ServeLine& l : lines) clients = std::max(clients, l.client + 1);

  ServerConfig config;
  config.workers = workers;
  config.accountant_path = workdir + "/inproc.journal";
  config.epsilon_budget = std::atof(flags.Get("epsilon-budget", "1000").c_str());
  config.delta_budget = std::atof(flags.Get("delta-budget", "0.99").c_str());
  auto server = DpkronServer::Create(config);
  if (!server.ok()) Die("server: " + server.status().ToString());
  server.value()->Start();

  // Closed loop: each client submits its next request only after the
  // previous reply arrived.
  std::vector<double> latencies_ms;
  std::mutex latencies_mu;
  std::atomic<uint64_t> failures{0};
  const int64_t root = t_open_span;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (const ServeLine& l : lines) {
        if (l.client != c) continue;
        auto request = ParseRequestLine(l.line);
        if (!request.ok()) {
          failures.fetch_add(1);
          continue;
        }
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        bool ok = false;
        Span span("server.submit", root);
        const double start = Now();
        const Status admitted =
            server.value()->Submit(request.value(), [&](std::string response) {
              std::lock_guard<std::mutex> lock(mu);
              ok = response.find("\"ok\":true") != std::string::npos;
              done = true;
              cv.notify_one();
            });
        if (!admitted.ok()) {
          failures.fetch_add(1);
          continue;
        }
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done; });
        if (!ok) failures.fetch_add(1);
        std::lock_guard<std::mutex> guard(latencies_mu);
        latencies_ms.push_back((Now() - start) * 1e3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server.value()->Drain();

  // One in-process RunScenario per request shape, no server.
  std::map<std::string, std::vector<double>> shape_ms;
  for (const ServeLine& l : lines) {
    auto request = ParseRequestLine(l.line);
    if (!request.ok()) continue;
    const std::string shape = request.value().dataset.empty() ? "registry" : "file";
    if (shape_ms[shape].size() >= 3) continue;
    ScenarioOverrides overrides;
    overrides.epsilon = request.value().epsilon;
    if (request.value().seed.has_value()) overrides.seed = *request.value().seed;
    if (!request.value().dataset.empty()) {
      overrides.dataset = request.value().dataset;
      overrides.dataset_cache = true;
    }
    ScenarioOutput output(request.value().scenario, nullptr);
    Span span(shape == "file" ? "core.scenario_file" : "core.scenario_registry");
    const double start = Now();
    const Status ran =
        RunScenario(*FindScenario(request.value().scenario), overrides, output);
    if (!ran.ok()) failures.fetch_add(1);
    shape_ms[shape].push_back((Now() - start) * 1e3);
  }

  // The first request of each shape replayed layer by layer on an empty
  // StatCache, so every layer computes as it does for a cold request.
  // Its parameters are checked against the daemon's reply to the same
  // request.
  std::map<std::string, bool> replayed;
  json.Key("replayed");
  json.BeginArray();
  for (const ServeLine& l : lines) {
    auto request = ParseRequestLine(l.line);
    if (!request.ok()) continue;
    const bool file = !request.value().dataset.empty();
    if (replayed[file ? "file" : "registry"]) continue;
    replayed[file ? "file" : "registry"] = true;
    ScenarioOverrides overrides;
    overrides.epsilon = request.value().epsilon;
    overrides.seed = request.value().seed;
    if (file) {
      overrides.dataset = request.value().dataset;
      overrides.dataset_cache = true;
    }
    StatCache::Instance().Clear();
    const Table1Parameters parameters = ReplayTable1Cell(
        ParamsFor(request.value().scenario, overrides), t_open_span);
    json.BeginObject();
    json.Key("request_id");
    json.String(request.value().request_id);
    json.Key("parameters");
    AppendParameters(json, parameters);
    json.EndObject();
  }
  json.EndArray();

  // The accountant's spend sequence replayed on a throwaway journal.
  std::vector<double> spend_ms;
  {
    auto accountant = PrivacyAccountant::Open(
        workdir + "/replay.journal", config.epsilon_budget, config.delta_budget);
    if (!accountant.ok()) Die("accountant: " + accountant.status().ToString());
    for (const ServeLine& l : lines) {
      auto request = ParseRequestLine(l.line);
      if (!request.ok()) continue;
      Span span("dp.accountant_spend");
      const double start = Now();
      const Status spent = accountant.value()->SpendOnce(
          request.value().analyst, request.value().epsilon, 0.01,
          request.value().scenario, request.value().request_id);
      spend_ms.push_back((Now() - start) * 1e3);
      if (!spent.ok()) failures.fetch_add(1);
    }
  }

  json.Key("inproc_ms");
  json.Number(Median(latencies_ms));
  json.Key("scenario_file_ms");
  json.Number(Median(shape_ms["file"]));
  json.Key("scenario_registry_ms");
  json.Number(Median(shape_ms["registry"]));
  json.Key("accountant_spend_ms");
  json.Number(Median(spend_ms));
  json.Key("inproc_failures");
  json.UInt(failures.load());
}

// Seconds one span costs to open and close (median of five rounds). The
// calibration spans are recorded after the workload's spans were taken.
double SpanCostSeconds() {
  constexpr int kRounds = 5;
  constexpr int kSpansPerRound = 20000;
  std::vector<double> per_span;
  for (int round = 0; round < kRounds; ++round) {
    const double t0 = Now();
    for (int i = 0; i < kSpansPerRound; ++i) Span span("trace.calibration");
    per_span.push_back((Now() - t0) / kSpansPerRound);
  }
  return Median(per_span);
}

int RunTrace(const Flags& flags) {
  const std::string workload = flags.Get("workload", "");
  const uint64_t seed = flags.U64("seed", 0);
  const std::string chrome = flags.Get("chrome", "");
  if (chrome.empty()) Die("trace needs --chrome=PATH");
  RegisterAllScenarios();
  SetParallelThreadCount(static_cast<int>(flags.U64("threads", 4)));

  JsonWriter json;
  json.BeginObject();
  json.Key("workload");
  json.String(workload);
  double wall = 0.0;
  {
    Span root(("workload." + workload).c_str());
    if (workload == "figures") {
      TraceFigures(flags, json);
    } else if (workload == "bigraph") {
      TraceBigraph(flags, json);
    } else if (workload == "sweep") {
      TraceSweep(flags, json);
    } else if (workload == "serve") {
      TraceServe(flags, json);
    } else {
      Die("unknown workload '" + workload + "'");
    }
    wall = root.Seconds();
  }
  const std::vector<SpanRecord> spans = Tracer::Instance().Spans();
  json.Key("spans");
  json.UInt(spans.size());
  AppendLayerTotals(json, spans);
  // Tracing overhead: what the recorded spans cost, as a share of the
  // replay's wall time without them. Spans opened in parallel on pool
  // workers or client threads overlap, so this is an upper bound.
  const double span_cost = spans.size() * SpanCostSeconds();
  json.Key("span_cost_s");
  json.Number(span_cost);
  json.Key("overhead_frac");
  json.Number(span_cost / (wall - span_cost));
  json.EndObject();
  WriteChromeTrace(chrome, workload, seed, spans);
  std::printf("%s\n", json.str().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench host|write-skg|bigraph|trace [--flag=value ...]");
  const std::string command = argv[1];
  const Flags flags(argc, argv);
  if (!flags.bad().empty()) Die("bad argument: " + flags.bad());
  if (command == "host") return RunHost();
  if (command == "write-skg") return RunWriteSkg(flags);
  if (command == "bigraph") return RunBigraph(flags);
  if (command == "trace") return RunTrace(flags);
  Die("unknown command '" + command + "'");
}

}  // namespace
}  // namespace dpkron

int main(int argc, char** argv) { return dpkron::Main(argc, argv); }
