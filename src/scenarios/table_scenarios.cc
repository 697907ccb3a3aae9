// Table 1 and the Sala-et-al. dK-2 comparison as registered scenarios
// (ported from the deleted table1_parameters / comparison_dk2 binaries).
// RNG consumption order matches the pre-engine binaries, so fixed-seed
// rows reproduce them.

#include "src/scenarios/scenarios.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/core/private_estimator.h"
#include "src/core/release.h"
#include "src/core/scenario.h"
#include "src/datasets/registry.h"
#include "src/dk/dk2.h"
#include "src/estimation/kronmom.h"
#include "src/graph/anf.h"
#include "src/graph/clustering.h"
#include "src/graph/extra_stats.h"
#include "src/graph/hop_plot.h"
#include "src/graph/node_stats.h"
#include "src/kronfit/kronfit.h"

namespace dpkron {
namespace {

// ------------------------------------------------------------- Table 1
//
// Initiator-parameter estimates (a, b, c) from KronFit, KronMom and the
// Private estimator on the four evaluation datasets. Paper values are
// printed next to the measured ones; absolute agreement is expected only
// on the Synthetic-SKG row (identical construction).

// One dataset's row, computed apart from the ScenarioOutput so the rows
// can run concurrently; RunTable1 emits them in dataset order.
struct Table1Row {
  // The private estimator is a randomized mechanism; a single draw can be
  // unlucky when the triangle count is noise-dominated (sparse graphs at
  // ε = 0.2). Three independent trials run, and the table reports the
  // one with median distance to the non-private estimate, plus the
  // spread, so the variability is visible rather than hidden behind a
  // seed choice. (The paper reports one draw.)
  struct PrivateTrial {
    Initiator2 theta;
    double distance;
    PrivacyBudget budget;
  };
  Status status;  // the first failure; trials holds those before it
  uint32_t nodes = 0;
  uint64_t edges = 0;
  Initiator2 kronfit;
  Initiator2 kronmom;
  std::vector<PrivateTrial> trials;
};

// The Rng streams of one row, split up front in the order a row-by-row
// loop draws them: the dataset's, KronFit's, then one per private trial.
constexpr size_t kTable1PrivateTrials = 3;
constexpr size_t kTable1RowStreams = 2 + kTable1PrivateTrials;

Table1Row ComputeTable1Row(const DatasetInfo& info, const ScenarioParams& p,
                           Rng* streams) {
  Table1Row row;
  auto loaded = LoadScenarioGraph(info.name, p, streams[0]);
  if (!loaded.ok()) {
    row.status = loaded.status();
    return row;
  }
  // The handle owns the backing (in-RAM or mmap'd); kernels see its
  // GraphView either way.
  const GraphHandle graph = std::move(loaded).value();
  row.nodes = graph.NumNodes();
  row.edges = graph.NumEdges();
  row.kronmom = FitKronMom(graph).theta;

  KronFitOptions kf_options;
  kf_options.iterations = p.kronfit_iterations;
  row.kronfit = FitKronFitCached(graph, streams[1], kf_options).theta;

  for (size_t t = 0; t < kTable1PrivateTrials; ++t) {
    PrivacyBudget budget(p.epsilon, p.delta);
    const auto fit =
        EstimatePrivateSkg(graph, p.epsilon, p.delta, budget, streams[2 + t]);
    if (!fit.ok()) {
      row.status = Status(fit.status().code(),
                          "private estimation failed on " + info.name + ": " +
                              fit.status().ToString());
      return row;
    }
    row.trials.push_back({fit.value().theta,
                          MaxAbsDifference(fit.value().theta, row.kronmom),
                          budget});
  }
  return row;
}

Status RunTable1(const ScenarioSpec& spec, const ScenarioParams& p,
                 ScenarioOutput& out) {
  (void)spec;
  out.Printf("# table1_parameters: epsilon=%g delta=%g\n", p.epsilon,
             p.delta);
  out.Printf("# experiment\tseries\tx\ty\n");

  // JSON copy of the machine rows; the text rows keep the legacy printf
  // format verbatim, so the table itself stays out of the TSV pass.
  SeriesTable& json_rows = out.Table("parameters", /*print=*/false);

  auto print_row = [&out](const char* label, const Initiator2& theta) {
    out.Printf("  %-26s a=%.4f  b=%.4f  c=%.4f\n", label, theta.a, theta.b,
               theta.c);
  };

  std::vector<DatasetInfo> datasets = ScenarioDatasets(p);
  // Smoke mode keeps the first two rows (one affiliation graph, which
  // exercises the full route, would hide dataset-dispatch bugs).
  if (p.smoke && datasets.size() > 2) {
    datasets.erase(datasets.begin() + 2, datasets.end());
  }
  Rng rng(p.seed);
  std::vector<Rng> streams =
      SplitRngStreams(rng, kTable1RowStreams * datasets.size());
  std::vector<Table1Row> rows(datasets.size());
  const auto compute_row = [&](size_t d) {
    rows[d] = ComputeTable1Row(datasets[d], p, &streams[kTable1RowStreams * d]);
  };
  // Inside a sweep cell the rows fan out, and idle workers take whole
  // rows. A dpkrond request or a standalone run computes them in order
  // and shares only their kernels' sections: there a pool thread holding
  // a row for milliseconds keeps other requests' short sections waiting
  // (perfbench `serve` p50 read +12% with rows fanned out, 12
  // interleaved pairs on a 4-core Xeon). Both schedules compute every
  // row, also after one fails, so the work done and the StatCache
  // counters do not depend on the thread count.
  if (InsideParallelSection()) {
    ParallelFor(datasets.size(), 1, compute_row);
  } else {
    for (size_t d = 0; d < datasets.size(); ++d) compute_row(d);
  }

  for (size_t d = 0; d < rows.size(); ++d) {
    const DatasetInfo& info = datasets[d];
    Table1Row& row = rows[d];
    for (const Table1Row::PrivateTrial& trial : row.trials) {
      out.RecordBudget(trial.budget, /*print=*/false);
      out.RecordSensitivityProfile();
    }
    if (!row.status.ok()) return row.status;
    std::vector<Table1Row::PrivateTrial>& trials = row.trials;
    std::sort(trials.begin(), trials.end(),
              [](const Table1Row::PrivateTrial& x,
                 const Table1Row::PrivateTrial& y) {
                return x.distance < y.distance;
              });
    const Table1Row::PrivateTrial& median_trial = trials[1];

    out.Printf("\n== Table 1 row: %s (paper: %s, N=%u E=%llu) ==\n",
               info.name.c_str(), info.paper_name.c_str(), info.paper_nodes,
               static_cast<unsigned long long>(info.paper_edges));
    out.Printf("  measured: N=%u E=%llu\n", row.nodes,
               static_cast<unsigned long long>(row.edges));
    // File-backed --dataset rows have no Table 1 paper column.
    const bool has_paper_row = info.generator != nullptr;
    print_row("KronFit (measured)", row.kronfit);
    if (has_paper_row) print_row("KronFit (paper)", info.paper_kronfit);
    print_row("KronMom (measured)", row.kronmom);
    if (has_paper_row) print_row("KronMom (paper)", info.paper_kronmom);
    print_row("Private (measured,median)", median_trial.theta);
    if (has_paper_row) print_row("Private (paper)", info.paper_private);
    out.Printf("  |Private - KronMom| (L_inf): median=%.4f"
               "  [min=%.4f max=%.4f over 3 trials]\n",
               median_trial.distance, trials.front().distance,
               trials.back().distance);

    // Machine-readable rows: x encodes dataset index, series the cell.
    const int dataset_index = static_cast<int>(d);
    auto emit = [&](const char* series, const Initiator2& t) {
      out.Printf("table1\t%s/%s/a\t%d\t%.6f\n", info.name.c_str(), series,
                 dataset_index, t.a);
      out.Printf("table1\t%s/%s/b\t%d\t%.6f\n", info.name.c_str(), series,
                 dataset_index, t.b);
      out.Printf("table1\t%s/%s/c\t%d\t%.6f\n", info.name.c_str(), series,
                 dataset_index, t.c);
      json_rows.Add(info.name + "/" + series + "/a", dataset_index, t.a);
      json_rows.Add(info.name + "/" + series + "/b", dataset_index, t.b);
      json_rows.Add(info.name + "/" + series + "/c", dataset_index, t.c);
    };
    emit("kronfit", row.kronfit);
    emit("kronmom", row.kronmom);
    emit("private", median_trial.theta);
  }
  return Status::Ok();
}

// ------------------------------------------------- dK-2 comparison (§5)
//
// Paper §5's first future-work item: compare the estimated statistics of
// synthetic graphs from the private SKG route against a Sala-style
// private dK-2 release, on the CA-GrQC-like workload over an ε sweep.

struct Dk2Summary {
  double edges = 0.0;
  double max_degree = 0.0;
  double avg_clustering = 0.0;
  double assortativity = 0.0;
  double effective_diameter = 0.0;
};

Dk2Summary Summarize(GraphView g, Rng& rng) {
  Dk2Summary s;
  const NodeStats stats = ComputeNodeStats(g);
  s.edges = double(g.NumEdges());
  s.max_degree = stats.degrees.empty()
                     ? 0.0
                     : double(*std::max_element(stats.degrees.begin(),
                                                stats.degrees.end()));
  s.avg_clustering = AverageClusteringFromParts(stats.degrees, stats.triangles);
  s.assortativity = DegreeAssortativity(g);
  AnfOptions anf;
  const auto hops =
      g.NumNodes() <= 4096 ? ExactHopPlot(g) : ApproxHopPlot(g, rng, anf);
  s.effective_diameter = hops.empty() ? 0.0 : double(EffectiveDiameter(hops));
  return s;
}

Status RunComparisonDk2(const ScenarioSpec& spec, const ScenarioParams& p,
                        ScenarioOutput& out) {
  out.Printf("# comparison_dk2: private SKG release vs Sala-style dK-2 "
             "release (paper section 5 future work)\n");
  Rng rng(p.seed);
  auto loaded = LoadScenarioGraph(spec.datasets.front(), p, rng);
  if (!loaded.ok()) return loaded.status();
  const GraphHandle original = std::move(loaded).value();
  Rng summary_rng = rng.Split();
  const Dk2Summary truth = Summarize(original, summary_rng);
  out.Printf("original: E=%.0f dmax=%.0f cc=%.3f r=%.3f diam90=%.0f\n",
             truth.edges, truth.max_degree, truth.avg_clustering,
             truth.assortativity, truth.effective_diameter);

  // The dK-2 route's own ground truth: the exact JDD truncated at the
  // public degree cap (the best any capped release could do).
  const uint32_t kDegreeCap = 64;
  const Dk2Table exact_table = Dk2Table::FromGraph(original);
  Dk2Table capped_exact;
  for (const auto& [key, count] : exact_table.cells()) {
    if (key.second <= kDegreeCap) {
      capped_exact.Set(key.first, key.second, count);
    }
  }
  out.Printf("dk2 cap=%u keeps %.0f of %.0f edges\n", kDegreeCap,
             capped_exact.TotalEdges(), exact_table.TotalEdges());

  SeriesTable& table = out.Table("statistic_vs_epsilon");
  auto emit = [&table, &truth](const char* method, double epsilon,
                               const Dk2Summary& s) {
    table.Add(std::string(method) + "/edges_rel_err", epsilon,
              std::fabs(s.edges - truth.edges) / truth.edges);
    table.Add(std::string(method) + "/clustering", epsilon, s.avg_clustering);
    table.Add(std::string(method) + "/assortativity", epsilon,
              s.assortativity);
    table.Add(std::string(method) + "/max_degree", epsilon, s.max_degree);
    table.Add(std::string(method) + "/effective_diameter", epsilon,
              s.effective_diameter);
  };
  // Reference rows at "epsilon = infinity" sentinel 1e6.
  emit("original", 1e6, truth);

  const ReleasePipeline pipeline;
  for (double epsilon : p.sweep_epsilons) {
    // (a) Paper's route: private SKG estimate, sample one realization.
    Rng skg_rng = rng.Split();
    PrivacyBudget skg_budget(epsilon, p.delta);
    const auto fit =
        EstimatePrivateSkg(original, epsilon, p.delta, skg_budget, skg_rng);
    if (fit.ok()) {
      out.RecordBudget(skg_budget, /*print=*/false);
      out.RecordSensitivityProfile();
      const Graph sample =
          pipeline.Sample(fit.value().theta, fit.value().k, skg_rng);
      Rng stats_rng = rng.Split();
      const Dk2Summary s = Summarize(sample, stats_rng);
      emit("skg", epsilon, s);
      out.Printf("eps=%-6g skg: E=%.0f dmax=%.0f cc=%.3f r=%+.3f "
                 "diam90=%.0f\n",
                 epsilon, s.edges, s.max_degree, s.avg_clustering,
                 s.assortativity, s.effective_diameter);
    }

    // (b) Sala-style route: private dK-2, regenerate. The route needs its
    // own mitigations to be competitive at all (Sala et al.'s system adds
    // partitioned noise and operates at large ε): a public degree cap
    // keeps the sensitivity 4·cap+1 manageable (hubs above the cap are
    // truncated) and a softer sparsification threshold keeps small real
    // cells alive at the cost of some spurious ones.
    Rng dk_rng = rng.Split();
    PrivacyBudget dk_budget(epsilon, 0.0);
    Dk2PrivatizeOptions dk_options;
    dk_options.degree_cap = kDegreeCap;
    dk_options.threshold_factor = 0.5;
    const auto noisy_table =
        PrivatizeDk2(exact_table, epsilon, dk_budget, dk_rng, dk_options);
    if (noisy_table.ok()) {
      out.RecordBudget(dk_budget, /*print=*/false);
      const double jdd_l1 =
          Dk2Table::L1Distance(noisy_table.value(), capped_exact) /
          std::max(capped_exact.TotalEdges(), 1.0);
      table.Add("dk2/jdd_l1_rel", epsilon, jdd_l1);
      const Graph released = SampleDk2Graph(noisy_table.value(), dk_rng);
      Rng stats_rng = rng.Split();
      const Dk2Summary s = Summarize(released, stats_rng);
      emit("dk2", epsilon, s);
      out.Printf("eps=%-6g dk2: E=%.0f dmax=%.0f cc=%.3f r=%+.3f "
                 "diam90=%.0f jddL1rel=%.3f\n",
                 epsilon, s.edges, s.max_degree, s.avg_clustering,
                 s.assortativity, s.effective_diameter, jdd_l1);
    }
  }
  return Status::Ok();
}

}  // namespace

void RegisterTableScenarios() {
  {
    ScenarioSpec spec;
    spec.name = "table1_parameters";
    spec.legacy_binary = "table1_parameters";
    spec.description =
        "Table 1: initiator estimates (a, b, c) on all datasets, "
        "paper vs measured";
    for (const DatasetInfo& info : PaperDatasets()) {
      spec.datasets.push_back(info.name);
    }
    spec.run = RunTable1;
    RegisterScenario(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "comparison_dk2";
    spec.legacy_binary = "comparison_dk2";
    spec.description =
        "Section 5 comparison: private SKG release vs Sala-style dK-2 "
        "over an epsilon sweep";
    spec.datasets = {"CA-GrQC-like"};
    spec.defaults.seed = 1234;
    spec.defaults.sweep_epsilons = {0.2, 1.0, 5.0, 20.0, 100.0};
    spec.run = RunComparisonDk2;
    RegisterScenario(std::move(spec));
  }
}

}  // namespace dpkron
