// The six ablation studies as registered scenarios (ported from the
// deleted ablation_* binaries). RNG consumption order matches the
// pre-engine binaries, so fixed-seed rows reproduce them; smoke mode
// shrinks the non-declarative axes (graph sizes, k ranges, dataset
// lists) on top of the engine's sweep truncation.

#include "src/scenarios/scenarios.h"

#include <cmath>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/private_estimator.h"
#include "src/core/scenario.h"
#include "src/datasets/affiliation.h"
#include "src/datasets/registry.h"
#include "src/dp/degree_sequence.h"
#include "src/dp/private_features.h"
#include "src/dp/smooth_sensitivity.h"
#include "src/dp/star_sensitivity.h"
#include "src/estimation/features.h"
#include "src/estimation/kronmom.h"
#include "src/estimation/kronmom_n.h"
#include "src/graph/degree.h"
#include "src/graph/node_stats.h"
#include "src/skg/moments_n.h"
#include "src/skg/sampler.h"

namespace dpkron {
namespace {

// -------------------------------------------------------- epsilon sweep
//
// Utility of the private estimator as a function of ε (extends the
// paper's single operating point ε = 0.2): L∞ distance between Θ̃ and
// the non-private KronMom estimate, and relative error of each
// privatized feature, on a synthetic SKG and a co-authorship-like graph.

void SweepOnGraph(const std::string& label, GraphView graph,
                  const ScenarioParams& p, Rng& rng, ScenarioOutput& out,
                  SeriesTable& theta_error, SeriesTable& feature_error) {
  const KronMomResult non_private = FitKronMom(graph);
  const GraphFeatures exact =
      FeaturesFromNodeStats(graph.NumEdges(), ComputeNodeStats(graph));
  for (double epsilon : p.sweep_epsilons) {
    double sum_theta = 0.0;
    double sum_edges = 0.0, sum_hairpins = 0.0, sum_triangles = 0.0,
           sum_tripins = 0.0;
    for (uint32_t t = 0; t < p.trials; ++t) {
      PrivacyBudget budget(epsilon, p.delta);
      const auto fit =
          EstimatePrivateSkg(graph, epsilon, p.delta, budget, rng);
      if (!fit.ok()) continue;
      if (t == 0) out.RecordBudget(budget, /*print=*/false);
      out.RecordSensitivityProfile();
      sum_theta += MaxAbsDifference(fit.value().theta, non_private.theta);
      const GraphFeatures& f = fit.value().private_features;
      sum_edges += std::fabs(f.edges - exact.edges) / exact.edges;
      sum_hairpins += std::fabs(f.hairpins - exact.hairpins) / exact.hairpins;
      sum_triangles +=
          std::fabs(f.triangles - exact.triangles) / exact.triangles;
      sum_tripins += std::fabs(f.tripins - exact.tripins) / exact.tripins;
    }
    theta_error.Add(label, epsilon, sum_theta / p.trials);
    feature_error.Add(label + "/edges", epsilon, sum_edges / p.trials);
    feature_error.Add(label + "/hairpins", epsilon, sum_hairpins / p.trials);
    feature_error.Add(label + "/triangles", epsilon,
                      sum_triangles / p.trials);
    feature_error.Add(label + "/tripins", epsilon, sum_tripins / p.trials);
  }
}

Status RunEpsilonSweep(const ScenarioSpec& spec, const ScenarioParams& p,
                       ScenarioOutput& out) {
  (void)spec;
  out.Printf("# ablation_epsilon_sweep: trials=%u delta=%g\n", p.trials,
             p.delta);
  Rng rng(p.seed);

  SeriesTable& theta_error = out.Table("theta_linf_vs_kronmom");
  SeriesTable& feature_error = out.Table("feature_relative_error");

  const uint32_t k = p.smoke ? 10 : 12;
  const Graph synthetic = SampleSkg({0.99, 0.45, 0.25}, k, rng);
  SweepOnGraph("synthetic-k" + std::to_string(k), synthetic, p, rng, out,
               theta_error, feature_error);

  AffiliationOptions options;
  options.num_authors = p.smoke ? 1024 : 4096;
  options.num_papers = p.smoke ? 650 : 2600;
  const Graph coauth = AffiliationGraph(options, rng);
  SweepOnGraph("coauthorship-like", coauth, p, rng, out, theta_error,
               feature_error);
  return Status::Ok();
}

// -------------------------------------------------------- feature route
//
// Algorithm 1's degree route vs direct smooth-sensitivity privatization
// of each count: one ε/2 charge on the degree sequence buys Ẽ, H̃ AND T̃
// simultaneously (post-processing), versus splitting ε four ways and
// paying the large worst-case star sensitivities.

Status RunFeatureRoute(const ScenarioSpec& spec, const ScenarioParams& p,
                       ScenarioOutput& out) {
  (void)spec;
  out.Printf("# ablation_feature_route: degree route (Algorithm 1) vs "
             "direct smooth-sensitivity route\n");
  Rng rng(p.seed);
  const uint32_t k = p.smoke ? 10 : 12;
  const Graph g = SampleSkg({0.99, 0.55, 0.35}, k, rng);  // mean deg ~10
  const GraphFeatures exact =
      FeaturesFromNodeStats(g.NumEdges(), ComputeNodeStats(g));
  out.Printf("graph: %u nodes, %llu edges; exact %s\n", g.NumNodes(),
             static_cast<unsigned long long>(g.NumEdges()),
             exact.ToString().c_str());

  SeriesTable& table = out.Table("relative_error");
  for (double epsilon : p.sweep_epsilons) {
    double deg_e = 0, deg_h = 0, deg_t = 0;
    double dir_e = 0, dir_h = 0, dir_t = 0;
    for (uint32_t trial = 0; trial < p.trials; ++trial) {
      const auto degree_route =
          ComputePrivateFeatures(g, epsilon, p.delta, rng);
      PrivacyBudget budget(epsilon, p.delta);
      const auto direct_route =
          ComputeDirectPrivateFeatures(g, epsilon, p.delta, budget, rng);
      if (!degree_route.ok() || !direct_route.ok()) continue;
      if (trial == 0) out.RecordBudget(budget, /*print=*/false);
      out.RecordSensitivityProfile();
      const GraphFeatures& a = degree_route.value().features;
      const GraphFeatures& b = direct_route.value();
      deg_e += std::fabs(a.edges - exact.edges) / exact.edges;
      deg_h += std::fabs(a.hairpins - exact.hairpins) / exact.hairpins;
      deg_t += std::fabs(a.tripins - exact.tripins) / exact.tripins;
      dir_e += std::fabs(b.edges - exact.edges) / exact.edges;
      dir_h += std::fabs(b.hairpins - exact.hairpins) / exact.hairpins;
      dir_t += std::fabs(b.tripins - exact.tripins) / exact.tripins;
    }
    table.Add("degree-route/edges", epsilon, deg_e / p.trials);
    table.Add("degree-route/hairpins", epsilon, deg_h / p.trials);
    table.Add("degree-route/tripins", epsilon, deg_t / p.trials);
    table.Add("direct-route/edges", epsilon, dir_e / p.trials);
    table.Add("direct-route/hairpins", epsilon, dir_h / p.trials);
    table.Add("direct-route/tripins", epsilon, dir_t / p.trials);
    out.Printf("eps=%-5g  E: deg=%.4f dir=%.4f | H: deg=%.4f dir=%.4f"
               " | T: deg=%.4f dir=%.4f\n",
               epsilon, deg_e / p.trials, dir_e / p.trials, deg_h / p.trials,
               dir_h / p.trials, deg_t / p.trials, dir_t / p.trials);
  }
  return Status::Ok();
}

// ------------------------------------------------------ model selection
//
// §3.3: "having N1 > 2 does not accrue a significant advantage". Fit
// symmetric 2×2 and 3×3 initiators on each evaluation dataset and
// compare the achieved Eq. (2) objective.

Status RunModelSelection(const ScenarioSpec& spec, const ScenarioParams& p,
                         ScenarioOutput& out) {
  (void)spec;
  out.Printf("# ablation_model_selection: N1 = 2 vs N1 = 3 (paper section"
             " 3.3 claim)\n");
  Rng rng(p.seed);
  SeriesTable& table = out.Table("objective");

  int index = 0;
  const std::vector<DatasetInfo> datasets = ScenarioDatasets(p);
  for (const DatasetInfo& info : datasets) {
    if (p.smoke && index >= 2) break;
    Rng dataset_rng = rng.Split();
    auto loaded = LoadScenarioGraph(info.name, p, dataset_rng);
    if (!loaded.ok()) return loaded.status();
    // The handle owns the backing (in-RAM or mmap'd); kernels see it
    // through its GraphView either way.
    const GraphHandle graph = std::move(loaded).value();
    const GraphFeatures observed =
        FeaturesFromNodeStats(graph.NumEdges(), ComputeNodeStats(graph));

    // N1 = 2 (paper's setting) via the dedicated fitter.
    const KronMomResult fit2 = FitKronMom(graph);

    // N1 = 3 via the general fitter.
    Rng fit_rng = rng.Split();
    const KronMomNResult fit3 = FitKronMomN(
        observed, 3, ChooseOrderN(graph.NumNodes(), 3), fit_rng);

    const auto theta3 = InitiatorN::Create(3, fit3.entries).value();
    const SkgMoments m3 = ExpectedMomentsN(theta3, fit3.k);

    out.Printf("\n== %s (E=%.0f H=%.0f Delta=%.0f T=%.3g) ==\n",
               info.name.c_str(), observed.edges, observed.hairpins,
               observed.triangles, observed.tripins);
    out.Printf("  N1=2: objective=%.4g  theta=%s (k=%u)\n", fit2.objective,
               fit2.theta.ToString().c_str(), fit2.k);
    out.Printf("  N1=3: objective=%.4g  (k=%u, %u^k=%.0f nodes)"
               "  E[E]=%.0f E[Delta]=%.0f\n",
               fit3.objective, fit3.k, 3, std::pow(3.0, fit3.k), m3.edges,
               m3.triangles);
    table.Add(info.name + "/n1=2", index, fit2.objective);
    table.Add(info.name + "/n1=3", index, fit3.objective);
    ++index;
  }
  out.Printf("\n(Lower objective = better moment match. The paper's claim"
             " holds when the N1=3 gain is marginal.)\n");
  return Status::Ok();
}

// ------------------------------------------------------------ objective
//
// The Dist × Norm menu of Equation (2): fit every pair on a synthetic
// SKG where ground truth is known and report mean parameter recovery
// error, with exact and with (ε, δ) private features. The private column
// exercises the *raw* Eq. (2) fit (no floor-dropping) — showing why the
// private estimator guards against floor-valued counts.

Status RunObjectiveAblation(const ScenarioSpec& spec,
                            const ScenarioParams& p, ScenarioOutput& out) {
  (void)spec;
  const Initiator2 truth{0.99, 0.45, 0.25};
  const uint32_t k = p.smoke ? 10 : 12;
  out.Printf("# ablation_objective: truth=%s k=%u trials=%u\n",
             truth.ToString().c_str(), k, p.trials);

  Rng rng(p.seed);
  const DistKind dists[] = {DistKind::kSquared, DistKind::kAbsolute};
  const NormKind norms[] = {NormKind::kF, NormKind::kF2, NormKind::kE,
                            NormKind::kE2};
  double err_exact[2][4] = {};
  double err_private[2][4] = {};

  for (uint32_t trial = 0; trial < p.trials; ++trial) {
    const Graph g = SampleSkg(truth, k, rng);
    const GraphFeatures exact =
        FeaturesFromNodeStats(g.NumEdges(), ComputeNodeStats(g));
    const auto private_features =
        ComputePrivateFeatures(g, p.epsilon, p.delta, rng);
    if (!private_features.ok()) return private_features.status();
    out.RecordSensitivityProfile();
    for (int di = 0; di < 2; ++di) {
      for (int ni = 0; ni < 4; ++ni) {
        KronMomOptions options;
        options.objective.dist = dists[di];
        options.objective.norm = norms[ni];
        err_exact[di][ni] += MaxAbsDifference(
            FitKronMomToFeatures(exact, k, options).theta, truth);
        err_private[di][ni] += MaxAbsDifference(
            FitKronMomToFeatures(private_features.value().features, k,
                                 options)
                .theta,
            truth);
      }
    }
  }

  SeriesTable& table = out.Table("theta_linf_error");
  out.Printf("\n== mean recovery error |theta_hat - theta_true|_inf ==\n");
  out.Printf("  %-20s %-12s %-12s\n", "Dist/Norm", "exact F", "private ~F");
  int combo = 0;
  for (int di = 0; di < 2; ++di) {
    for (int ni = 0; ni < 4; ++ni) {
      const std::string name = std::string(DistKindName(dists[di])) + "+" +
                               NormKindName(norms[ni]);
      const double exact_mean = err_exact[di][ni] / p.trials;
      const double private_mean = err_private[di][ni] / p.trials;
      out.Printf("  %-20s %-12.4f %-12.4f\n", name.c_str(), exact_mean,
                 private_mean);
      table.Add(name + "/exact", combo, exact_mean);
      table.Add(name + "/private", combo, private_mean);
      ++combo;
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------- postprocess
//
// How much of Algorithm 1's accuracy comes from the Hay et al.
// constrained-inference post-processing of the noisy degree sequence?
// Privatize with and without the isotonic projection (matched noise
// draws) and compare the derived features Ẽ, H̃, T̃.

Status RunPostprocessAblation(const ScenarioSpec& spec,
                              const ScenarioParams& p, ScenarioOutput& out) {
  (void)spec;
  out.Printf("# ablation_postprocess: Hay et al. constrained inference\n");
  Rng rng(p.seed);
  const uint32_t k = p.smoke ? 10 : 12;
  const Graph g = SampleSkg({0.99, 0.55, 0.35}, k, rng);  // mean degree ~10
  const GraphFeatures exact =
      FeaturesFromNodeStats(g.NumEdges(), ComputeNodeStats(g));
  const double e_true = exact.edges;
  const double h_true = exact.hairpins;
  const double t_true = exact.tripins;

  SeriesTable& table = out.Table("feature_relative_error");
  for (double epsilon : p.sweep_epsilons) {
    double raw_e = 0, raw_h = 0, raw_t = 0;
    double fit_e = 0, fit_h = 0, fit_t = 0;
    for (uint32_t trial = 0; trial < p.trials; ++trial) {
      // Matched noise draws via identical seeds.
      Rng rng_raw(1000 + trial), rng_fit(1000 + trial);
      PrivateDegreeOptions raw_options;
      raw_options.postprocess = false;
      raw_options.clamp_to_range = false;
      PrivateDegreeOptions fit_options;
      fit_options.postprocess = true;
      fit_options.clamp_to_range = true;
      const auto d_raw_result =
          PrivateDegreeSequence(g, epsilon, rng_raw, raw_options);
      const auto d_fit_result =
          PrivateDegreeSequence(g, epsilon, rng_fit, fit_options);
      if (!d_raw_result.ok()) return d_raw_result.status();
      if (!d_fit_result.ok()) return d_fit_result.status();
      const std::vector<double>& d_raw = d_raw_result.value();
      const std::vector<double>& d_fit = d_fit_result.value();
      raw_e += std::fabs(EdgesFromDegrees(d_raw) - e_true) / e_true;
      raw_h += std::fabs(HairpinsFromDegrees(d_raw) - h_true) / h_true;
      raw_t += std::fabs(TripinsFromDegrees(d_raw) - t_true) / t_true;
      fit_e += std::fabs(EdgesFromDegrees(d_fit) - e_true) / e_true;
      fit_h += std::fabs(HairpinsFromDegrees(d_fit) - h_true) / h_true;
      fit_t += std::fabs(TripinsFromDegrees(d_fit) - t_true) / t_true;
    }
    table.Add("raw/edges", epsilon, raw_e / p.trials);
    table.Add("raw/hairpins", epsilon, raw_h / p.trials);
    table.Add("raw/tripins", epsilon, raw_t / p.trials);
    table.Add("postprocessed/edges", epsilon, fit_e / p.trials);
    table.Add("postprocessed/hairpins", epsilon, fit_h / p.trials);
    table.Add("postprocessed/tripins", epsilon, fit_t / p.trials);
    out.Printf("eps=%-5g  E err raw=%.4f fit=%.4f | H err raw=%.4f fit=%.4f"
               " | T err raw=%.4f fit=%.4f\n",
               epsilon, raw_e / p.trials, fit_e / p.trials, raw_h / p.trials,
               fit_h / p.trials, raw_t / p.trials, fit_t / p.trials);
  }
  return Status::Ok();
}

// --------------------------------------------------- smooth sensitivity
//
// Paper §5 future work: SS_∆ as a function of graph size. Measure LS_∆
// and SS_{β,∆} on SKG samples of increasing order k and on the
// co-authorship generator at increasing sizes, and report the noise
// scale 2·SS/ε versus the true triangle count.

Status RunSmoothSensitivity(const ScenarioSpec& spec,
                            const ScenarioParams& p, ScenarioOutput& out) {
  (void)spec;
  const double beta = p.epsilon / (2.0 * std::log(2.0 / p.delta));
  out.Printf("# ablation_smooth_sensitivity: epsilon=%g delta=%g beta=%g\n",
             p.epsilon, p.delta, beta);

  SeriesTable& local = out.Table("local_sensitivity");
  SeriesTable& smooth = out.Table("smooth_sensitivity");
  SeriesTable& relative = out.Table("noise_over_triangles");

  Rng rng(p.seed);
  const uint32_t max_k = p.smoke ? 9 : 13;
  for (uint32_t k = 6; k <= max_k; ++k) {
    const Graph g = SampleSkg({0.99, 0.45, 0.25}, k, rng);
    const TriangleSensitivityProfile profile(g);
    out.RecordSensitivityProfile();
    const double n = double(g.NumNodes());
    const double ss = profile.SmoothSensitivity(beta);
    const double triangles = double(TotalTriangles(ComputeNodeStats(g)));
    local.Add("skg", n, double(profile.LocalSensitivity()));
    smooth.Add("skg", n, ss);
    if (triangles > 0) {
      relative.Add("skg", n, (2.0 * ss / p.epsilon) / triangles);
    }
  }

  const uint32_t max_authors = p.smoke ? 1024 : 8192;
  for (uint32_t authors = 512; authors <= max_authors; authors *= 2) {
    AffiliationOptions options;
    options.num_authors = authors;
    options.num_papers = (authors * 5) / 8;
    const Graph g = AffiliationGraph(options, rng);
    const TriangleSensitivityProfile profile(g);
    out.RecordSensitivityProfile();
    const double ss = profile.SmoothSensitivity(beta);
    const double triangles = double(TotalTriangles(ComputeNodeStats(g)));
    local.Add("coauthorship", double(authors),
              double(profile.LocalSensitivity()));
    smooth.Add("coauthorship", double(authors), ss);
    if (triangles > 0) {
      relative.Add("coauthorship", double(authors),
                   (2.0 * ss / p.epsilon) / triangles);
    }
  }
  return Status::Ok();
}

ScenarioSpec AblationSpec(std::string name, std::string legacy,
                          std::string description) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.legacy_binary = std::move(legacy);
  spec.description = std::move(description);
  return spec;
}

}  // namespace

void RegisterAblationScenarios() {
  {
    ScenarioSpec spec = AblationSpec(
        "epsilon_sweep", "ablation_epsilon_sweep",
        "Ablation: private-estimator utility across an epsilon sweep");
    spec.defaults.seed = 42;
    spec.defaults.trials = 5;
    spec.defaults.sweep_epsilons = {0.05, 0.1, 0.2, 0.5, 1.0, 2.0};
    spec.run = RunEpsilonSweep;
    RegisterScenario(std::move(spec));
  }
  {
    ScenarioSpec spec = AblationSpec(
        "feature_route", "ablation_feature_route",
        "Ablation: Algorithm 1 degree route vs direct smooth-sensitivity "
        "route");
    spec.defaults.seed = 2718;
    spec.defaults.trials = 8;
    spec.defaults.sweep_epsilons = {0.1, 0.2, 0.5, 1.0, 2.0};
    spec.run = RunFeatureRoute;
    RegisterScenario(std::move(spec));
  }
  {
    ScenarioSpec spec = AblationSpec(
        "model_selection", "ablation_model_selection",
        "Ablation: N1 = 2 vs N1 = 3 initiators (paper section 3.3 claim)");
    for (const DatasetInfo& info : PaperDatasets()) {
      spec.datasets.push_back(info.name);
    }
    spec.defaults.seed = 31415;
    spec.run = RunModelSelection;
    RegisterScenario(std::move(spec));
  }
  {
    ScenarioSpec spec = AblationSpec(
        "objective_ablation", "ablation_objective",
        "Ablation: the Dist x Norm menu of Equation (2)");
    spec.defaults.seed = 99;
    spec.defaults.trials = 5;
    spec.run = RunObjectiveAblation;
    RegisterScenario(std::move(spec));
  }
  {
    ScenarioSpec spec = AblationSpec(
        "postprocess_ablation", "ablation_postprocess",
        "Ablation: Hay et al. constrained-inference post-processing");
    spec.defaults.seed = 123;
    spec.defaults.trials = 10;
    spec.defaults.sweep_epsilons = {0.05, 0.1, 0.2, 0.5, 1.0};
    spec.run = RunPostprocessAblation;
    RegisterScenario(std::move(spec));
  }
  {
    ScenarioSpec spec = AblationSpec(
        "smooth_sensitivity", "ablation_smooth_sensitivity",
        "Ablation: smooth sensitivity of the triangle count vs graph size");
    spec.defaults.seed = 7;
    spec.defaults.epsilon = 0.1;  // the ε/2 share of Algorithm 1 at ε = 0.2
    spec.run = RunSmoothSensitivity;
    RegisterScenario(std::move(spec));
  }
}

void RegisterAllScenarios() {
  static const bool registered = [] {
    RegisterFigureScenarios();
    RegisterTableScenarios();
    RegisterAblationScenarios();
    return true;
  }();
  (void)registered;
}

}  // namespace dpkron
