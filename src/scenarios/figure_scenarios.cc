// Figure 1–4 reproductions as registered scenarios (ported from the
// deleted figure_harness + fig* binaries).
//
// Each figure shows, for one dataset, five panels — hop plot, degree
// distribution, scree plot, network value, clustering-by-degree —
// overlaying the original graph with single synthetic realizations from
// the KronFit, KronMom and Private estimators (Figure 1 additionally
// shows "Expected" series averaged over realizations; the paper used
// 100). The RNG consumption order matches the pre-engine binaries, so
// fixed-seed TSV rows reproduce them (the "expected-*" series now come
// from the parallel ReleasePipeline and its per-realization streams).

#include "src/scenarios/scenarios.h"

#include <algorithm>
#include <string>

#include "src/common/rng.h"
#include "src/core/private_estimator.h"
#include "src/core/release.h"
#include "src/core/scenario.h"
#include "src/datasets/registry.h"
#include "src/estimation/kronmom.h"
#include "src/kronfit/kronfit.h"

namespace dpkron {
namespace {

void EmitStatistics(ScenarioOutput& out, const std::string& series,
                    const GraphStatistics& stats) {
  SeriesTable& hop = out.Table("hop_plot");
  SeriesTable& degree = out.Table("degree_distribution");
  SeriesTable& scree = out.Table("scree_plot");
  SeriesTable& netval = out.Table("network_value");
  SeriesTable& clustering = out.Table("clustering");
  for (size_t h = 0; h < stats.hop_plot.size(); ++h) {
    hop.Add(series, double(h), stats.hop_plot[h]);
  }
  for (const auto& [d, count] : stats.degree_histogram) {
    degree.Add(series, d, count);
  }
  for (size_t rank = 0; rank < stats.scree.size(); ++rank) {
    scree.Add(series, double(rank + 1), stats.scree[rank]);
  }
  // Network value plots truncate to the leading components.
  const size_t keep = std::min<size_t>(stats.network_value.size(), 1000);
  for (size_t rank = 0; rank < keep; ++rank) {
    netval.Add(series, double(rank + 1), stats.network_value[rank]);
  }
  for (const auto& [d, cc] : stats.clustering_by_degree) {
    clustering.Add(series, d, cc);
  }
}

Status RunFigure(const ScenarioSpec& spec, const ScenarioParams& p,
                 ScenarioOutput& out) {
  const std::string& dataset = EffectiveDatasetRef(spec.datasets.front(), p);
  Rng rng(p.seed);
  out.Printf("# %s: dataset=%s epsilon=%g delta=%g realizations=%u\n",
             spec.name.c_str(), dataset.c_str(), p.epsilon, p.delta,
             p.realizations);

  auto loaded = LoadScenarioGraph(dataset, p, rng);
  if (!loaded.ok()) return loaded.status();
  // The handle owns whichever backing the source kind chose; every
  // consumer below takes its GraphView.
  const GraphHandle original = std::move(loaded).value();
  const uint32_t k = ChooseKroneckerOrder(original.NumNodes());

  SummaryBlock dataset_summary(spec.name + " dataset");
  dataset_summary.Add("nodes", double(original.NumNodes()));
  dataset_summary.Add("edges", double(original.NumEdges()));
  dataset_summary.Add("kronecker order k", double(k));
  out.AddSummary(dataset_summary);

  // --- Fit the three estimators -----------------------------------------
  const KronMomResult kronmom = FitKronMom(original);

  KronFitOptions kf_options;
  kf_options.iterations = p.kronfit_iterations;
  Rng kronfit_rng = rng.Split();
  // Cached: in an ε sweep the fit depends on (graph, seed) only, so the
  // 5-ε runs of one seed share a single fit.
  const KronFitResult kronfit =
      FitKronFitCached(original, kronfit_rng, kf_options);

  Rng private_rng = rng.Split();
  PrivacyBudget budget(p.epsilon, p.delta);
  const auto private_fit =
      EstimatePrivateSkg(original, p.epsilon, p.delta, budget, private_rng);
  if (!private_fit.ok()) return private_fit.status();
  out.RecordSensitivityProfile();

  SummaryBlock params(spec.name + " fitted initiators (a b c)");
  params.Add("KronFit", kronfit.theta.ToString());
  params.Add("KronMom", kronmom.theta.ToString());
  params.Add("Private", private_fit.value().theta.ToString());
  out.AddSummary(params);
  out.RecordBudget(budget);

  // --- Statistics: original + one realization per estimator -------------
  const ReleasePipeline pipeline;
  Rng stats_rng = rng.Split();
  EmitStatistics(out, "original", pipeline.Compute(original, stats_rng));

  // The private Θ̃ is a fresh mechanism draw per (ε, seed) run, so its
  // sample statistics can never be served to another run — compute them
  // through the ephemeral (non-memoizing) path. The kronfit/kronmom
  // estimates are ε-independent and their panels DO recur across an ε
  // sweep, which is what the cached path amortizes.
  struct Estimate {
    const char* name;
    Initiator2 theta;
    bool per_run;
  };
  const Estimate estimates[] = {
      {"kronfit", kronfit.theta, false},
      {"kronmom", kronmom.theta, false},
      {"private", private_fit.value().theta, true},
  };
  for (const Estimate& estimate : estimates) {
    const Graph sample = pipeline.Sample(estimate.theta, k, stats_rng);
    EmitStatistics(out, estimate.name,
                   estimate.per_run
                       ? pipeline.ComputeEphemeral(sample, stats_rng)
                       : pipeline.Compute(sample, stats_rng));
  }

  // --- "Expected" series: averages over R realizations -------------------
  if (p.realizations > 0) {
    for (const Estimate& estimate : estimates) {
      const GraphStatistics mean =
          estimate.per_run
              ? pipeline.ExpectedEphemeral(estimate.theta, k, p.realizations,
                                           stats_rng)
              : pipeline.Expected(estimate.theta, k, p.realizations,
                                  stats_rng);
      EmitStatistics(out, std::string("expected-") + estimate.name, mean);
    }
  }
  return Status::Ok();
}

ScenarioSpec FigureSpec(std::string name, std::string legacy,
                        std::string description, std::string dataset,
                        uint32_t realizations) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.legacy_binary = std::move(legacy);
  spec.description = std::move(description);
  spec.datasets = {std::move(dataset)};
  spec.defaults.realizations = realizations;
  spec.run = RunFigure;
  return spec;
}

}  // namespace

void RegisterFigureScenarios() {
  RegisterScenario(FigureSpec(
      "fig1_ca_grqc", "fig1_ca_grqc",
      "Figure 1: CA-GrQC(-like) five-panel overlay + Expected averages",
      "CA-GrQC-like", /*realizations=*/10));
  RegisterScenario(FigureSpec(
      "fig2_as20", "fig2_as20",
      "Figure 2: AS20(-like), single realization per estimator",
      "AS20-like", /*realizations=*/0));
  RegisterScenario(FigureSpec(
      "fig3_ca_hepth", "fig3_ca_hepth",
      "Figure 3: CA-HepTh(-like), single realization per estimator",
      "CA-HepTh-like", /*realizations=*/0));
  RegisterScenario(FigureSpec(
      "fig4_synthetic", "fig4_synthetic",
      "Figure 4: synthetic SKG source, all estimators recover the truth",
      "Synthetic-SKG", /*realizations=*/0));
}

}  // namespace dpkron
