// The scenario engine and the registered catalog: registry integrity,
// migration completeness (every deleted bench binary has a scenario),
// parameter resolution, JSON emission, and a smoke run of every
// registered scenario at tiny axes.

#include "src/core/scenario.h"

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/graph/graph_io.h"
#include "src/scenarios/scenarios.h"

namespace dpkron {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterAllScenarios(); }
};

TEST_F(ScenarioTest, RegistryHoldsTheFullCatalog) {
  EXPECT_GE(AllScenarios().size(), 12u);
  std::set<std::string> names;
  for (const ScenarioSpec& spec : AllScenarios()) {
    EXPECT_TRUE(names.insert(spec.name).second)
        << "duplicate scenario " << spec.name;
    EXPECT_FALSE(spec.description.empty()) << spec.name;
    EXPECT_TRUE(static_cast<bool>(spec.run)) << spec.name;
    EXPECT_EQ(FindScenario(spec.name), &spec);
  }
  EXPECT_EQ(FindScenario("no_such_scenario"), nullptr);
}

TEST_F(ScenarioTest, EveryLegacyBinaryHasAScenario) {
  const char* legacy[] = {
      "fig1_ca_grqc",          "fig2_as20",
      "fig3_ca_hepth",         "fig4_synthetic",
      "table1_parameters",     "comparison_dk2",
      "ablation_epsilon_sweep", "ablation_feature_route",
      "ablation_model_selection", "ablation_objective",
      "ablation_postprocess",  "ablation_smooth_sensitivity",
  };
  std::set<std::string> ported;
  for (const ScenarioSpec& spec : AllScenarios()) {
    ported.insert(spec.legacy_binary);
  }
  for (const char* binary : legacy) {
    EXPECT_TRUE(ported.count(binary)) << "no scenario ports " << binary;
  }
}

TEST_F(ScenarioTest, ResolveParamsAppliesOverridesThenSmoke) {
  ScenarioParams defaults;
  defaults.seed = 7;
  defaults.realizations = 100;
  defaults.trials = 10;
  defaults.kronfit_iterations = 40;
  defaults.sweep_epsilons = {0.05, 0.1, 0.2, 0.5};

  ScenarioOverrides overrides;
  overrides.seed = 11;
  overrides.epsilon = 0.5;
  ScenarioParams p = ResolveParams(defaults, overrides);
  EXPECT_EQ(p.seed, 11u);
  EXPECT_DOUBLE_EQ(p.epsilon, 0.5);
  EXPECT_EQ(p.realizations, 100u);
  EXPECT_EQ(p.sweep_epsilons.size(), 4u);

  overrides.smoke = true;
  p = ResolveParams(defaults, overrides);
  EXPECT_EQ(p.realizations, 2u);
  EXPECT_EQ(p.trials, 2u);
  EXPECT_EQ(p.kronfit_iterations, 5u);
  EXPECT_EQ(p.sweep_epsilons.size(), 2u);

  // An explicit flag wins over smoke shrinking.
  overrides.realizations = 50;
  overrides.sweep_epsilons = std::vector<double>{0.1, 0.2, 0.3};
  p = ResolveParams(defaults, overrides);
  EXPECT_EQ(p.realizations, 50u);
  EXPECT_EQ(p.sweep_epsilons.size(), 3u);

  // Dataset override + cache flag pass through untouched by smoke.
  overrides.dataset = "some/file.edges";
  overrides.dataset_cache = true;
  p = ResolveParams(defaults, overrides);
  EXPECT_EQ(p.dataset, "some/file.edges");
  EXPECT_TRUE(p.dataset_cache);
}

TEST_F(ScenarioTest, ScenarioDatasetsOverrideSynthesizesOneEntry) {
  ScenarioParams p;
  EXPECT_EQ(ScenarioDatasets(p).size(), PaperDatasets().size());

  p.dataset = "graphs/snap.edges";
  const auto datasets = ScenarioDatasets(p);
  ASSERT_EQ(datasets.size(), 1u);
  EXPECT_EQ(datasets[0].name, "graphs/snap.edges");
  EXPECT_EQ(datasets[0].generator, nullptr);

  // A registry-name override keeps the full entry, paper columns and
  // generator included.
  p.dataset = "AS20-like";
  const auto registry = ScenarioDatasets(p);
  ASSERT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry[0].paper_name, "AS20");
  EXPECT_EQ(registry[0].paper_nodes, 6474u);
  EXPECT_NE(registry[0].generator, nullptr);
}

TEST_F(ScenarioTest, LoadScenarioGraphPrefersOverride) {
  const std::string path = ::testing::TempDir() + "/scenario_override.edges";
  std::ofstream(path) << "0 1\n1 2\n2 3\n";
  ScenarioParams p;
  p.dataset = path;
  Rng rng(1);
  // The spec-declared registry name loses to the override.
  const auto graph = LoadScenarioGraph("AS20-like", p, rng);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph.value().NumNodes(), 4u);

  ScenarioParams no_override;
  Rng rng2(1);
  const auto registry = LoadScenarioGraph("AS20-like", no_override, rng2);
  ASSERT_TRUE(registry.ok());
  EXPECT_EQ(registry.value().NumNodes(), 6474u);

  Rng rng3(1);
  const auto missing =
      LoadScenarioGraph("no-such-dataset", no_override, rng3);
  EXPECT_FALSE(missing.ok());
  std::remove(path.c_str());
}

// A registered scenario must run end to end on a file-backed source:
// write an edge list, point the --dataset override at it, and check the
// run emits series rows for it.
TEST_F(ScenarioTest, FileBackedDatasetRunsEndToEnd) {
  const std::string path = ::testing::TempDir() + "/scenario_e2e.edges";
  {
    // A small but statistically non-trivial graph: two hubs + ring.
    std::ofstream out(path);
    out << "# scenario fixture\r\n";
    const int n = 120;
    for (int i = 2; i < n; ++i) {
      out << 0 << '\t' << i << "\r\n";
      if (i % 2 == 0) out << 1 << ' ' << i << '\n';
      out << i << '\t' << (i - 1) << '\n';
    }
  }
  const std::string cache = BinaryCachePath(path);
  std::remove(cache.c_str());

  const ScenarioSpec* spec = FindScenario("fig2_as20");
  ASSERT_NE(spec, nullptr);
  ScenarioOverrides overrides;
  overrides.smoke = true;
  overrides.kronfit_iterations = 2;
  overrides.dataset = path;
  overrides.dataset_cache = true;
  ScenarioOutput output(spec->name, /*text_out=*/nullptr);
  const Status status = RunScenario(*spec, overrides, output);
  ASSERT_TRUE(status.ok()) << status.ToString();

  JsonWriter json;
  output.AppendRunJson(json);
  EXPECT_NE(json.str().find("\"rows\":[{"), std::string::npos);
  EXPECT_NE(json.str().find("scenario_e2e.edges"), std::string::npos);
  // The cache flag produced the sidecar.
  std::ifstream sidecar(cache);
  EXPECT_TRUE(sidecar.good());

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

// Every registered scenario must complete a smoke run and produce at
// least one non-empty series. This is the regression net for the whole
// catalog: a scenario that stops emitting rows (or starts failing) is
// caught here, not in CI's artifact diff.
TEST_F(ScenarioTest, EveryScenarioSmokeRunEmitsSeries) {
  for (const ScenarioSpec& spec : AllScenarios()) {
    SCOPED_TRACE(spec.name);
    ScenarioOverrides overrides;
    overrides.smoke = true;
    overrides.trials = 1;
    overrides.realizations = spec.defaults.realizations > 0 ? 1 : 0;
    overrides.kronfit_iterations = 2;
    if (!spec.defaults.sweep_epsilons.empty()) {
      overrides.sweep_epsilons = std::vector<double>{0.5};
    }
    ScenarioOutput output(spec.name, /*text_out=*/nullptr);
    const Status status = RunScenario(spec, overrides, output);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_GT(output.elapsed_seconds(), 0.0);

    JsonWriter json;
    output.AppendRunJson(json);
    const std::string& doc = json.str();
    EXPECT_NE(doc.find("\"scenario\":\"" + spec.name + "\""),
              std::string::npos);
    // At least one table with at least one row.
    EXPECT_NE(doc.find("\"rows\":[{"), std::string::npos)
        << "scenario emitted no series rows";
  }
}

TEST_F(ScenarioTest, ExactSensitivityFlagLandsInRunJson) {
  ScenarioOutput output("flagged", nullptr);
  auto doc = [&output] {
    JsonWriter json;
    output.AppendRunJson(json);
    return json.str();
  };
  // No profile computed: null.
  EXPECT_NE(doc().find("\"exact_sensitivity\":null"), std::string::npos);
  // Every profile is exact, so any recorded profile reads true.
  output.RecordSensitivityProfile();
  output.RecordSensitivityProfile();
  EXPECT_NE(doc().find("\"exact_sensitivity\":true"), std::string::npos);
}

TEST_F(ScenarioTest, DegenerateEpsilonFailsWithStatusBeforeRunning) {
  const ScenarioSpec* spec = FindScenario("fig2_as20");
  ASSERT_NE(spec, nullptr);
  ScenarioOverrides overrides;
  overrides.smoke = true;
  overrides.epsilon = 0.0;
  ScenarioOutput output(spec->name, /*text_out=*/nullptr);
  const Status status = RunScenario(*spec, overrides, output);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("epsilon"), std::string::npos);
}

TEST_F(ScenarioTest, ScenariosJsonWrapsRuns) {
  ScenarioOutput a("alpha", nullptr);
  a.Table("panel").Add("s", 1.0, 2.0);
  ScenarioOutput b("beta", nullptr);
  const std::string doc = ScenariosJson({&a, &b}, 4);
  EXPECT_NE(doc.find("\"schema\":\"dpkron.scenarios.v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"threads\":4"), std::string::npos);
  EXPECT_NE(doc.find("\"scenario\":\"alpha\""), std::string::npos);
  EXPECT_NE(doc.find("\"scenario\":\"beta\""), std::string::npos);
  EXPECT_NE(doc.find("\"experiment\":\"alpha/panel\""), std::string::npos);
}

TEST_F(ScenarioTest, OutputRecordsBudgetLedger) {
  ScenarioOutput output("budgeted", nullptr);
  PrivacyBudget budget(0.2, 0.01);
  ASSERT_TRUE(budget.Spend(0.1, 0.0, "degree sequence").ok());
  ASSERT_TRUE(budget.Spend(0.1, 0.01, "triangles").ok());
  output.RecordBudget(budget, /*print=*/false);
  JsonWriter json;
  output.AppendRunJson(json);
  EXPECT_NE(json.str().find("\"label\":\"degree sequence\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"label\":\"triangles\""), std::string::npos);
}

}  // namespace
}  // namespace dpkron
