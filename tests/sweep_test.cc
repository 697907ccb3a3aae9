// The sweep engine: matrix expansion order, per-run byte-identity with
// the sequential --scenario path (at several thread counts), clean
// failure isolation for degenerate runs, the JSON document, and the
// Release-build ≥3× amortization gate for a 5-ε × 3-seed sweep.

#include "src/core/sweep.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/env.h"
#include "src/common/parallel.h"
#include "src/common/stat_cache.h"
#include "src/datasets/preferential_attachment.h"
#include "src/graph/graph_io.h"
#include "src/scenarios/scenarios.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

class SweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterAllScenarios();
    StatCache::Instance().set_enabled(false);
    StatCache::Instance().Clear();
  }
  void TearDown() override {
    StatCache::Instance().set_enabled(false);
    StatCache::Instance().DetachDiskTier();
    StatCache::Instance().set_byte_budget(0);
    StatCache::Instance().Clear();
  }
};

using testing::ScopedThreads;

// Process-unique fixture path: concurrent test runs from different
// build trees share /tmp, so a fixed name lets one process delete a
// fixture out from under another mid-test.
std::string UniqueTempPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem + "_" +
         std::to_string(::getpid()) + ".edges";
}

// The per-run JSON with the wall-time field zeroed — everything else in
// a run document is deterministic.
std::string RunJson(ScenarioOutput& output) {
  output.set_elapsed_seconds(0.0);
  JsonWriter json;
  output.AppendRunJson(json);
  return json.str();
}

TEST_F(SweepTest, SeedAxisIsDeterministicAndAnchoredAtBase) {
  const auto seeds = SweepSeeds(20120330, 4);
  ASSERT_EQ(seeds.size(), 4u);
  EXPECT_EQ(seeds[0], 20120330u);  // a 1-seed sweep is the plain run
  EXPECT_EQ(seeds, SweepSeeds(20120330, 4));
  // Prefix-stable: growing the axis never renumbers existing cells.
  const auto longer = SweepSeeds(20120330, 6);
  for (size_t j = 0; j < seeds.size(); ++j) EXPECT_EQ(longer[j], seeds[j]);
  // Distinct seeds, and a different base gives a different axis.
  for (size_t i = 0; i < seeds.size(); ++i) {
    for (size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]);
    }
  }
  EXPECT_NE(SweepSeeds(1, 4)[1], seeds[1]);
}

TEST_F(SweepTest, RejectsBadSpecsWithoutRunning) {
  EXPECT_FALSE(RunSweep(SweepSpec{}).ok());
  SweepSpec unknown;
  unknown.scenarios = {"no_such_scenario"};
  EXPECT_EQ(RunSweep(unknown).status().code(), StatusCode::kNotFound);
  SweepSpec zero_seeds;
  zero_seeds.scenarios = {"fig2_as20"};
  zero_seeds.seeds = 0;
  EXPECT_FALSE(RunSweep(zero_seeds).ok());
}

TEST_F(SweepTest, MatrixExpandsInDeclaredOrder) {
  SweepSpec spec;
  spec.scenarios = {"smooth_sensitivity"};
  spec.epsilons = {0.5, 1.0};
  spec.seeds = 2;
  spec.base.smoke = true;
  const auto result = RunSweep(spec);
  ASSERT_TRUE(result.ok());
  const auto& runs = result.value().runs;
  ASSERT_EQ(runs.size(), 4u);  // 1 scenario × 1 dataset × 2 ε × 2 seeds
  const auto seeds = SweepSeeds(7, 2);  // smooth_sensitivity default seed
  // ε-major, seed-minor, in declared order.
  EXPECT_EQ(runs[0].epsilon, 0.5);
  EXPECT_EQ(runs[0].seed, seeds[0]);
  EXPECT_EQ(runs[1].epsilon, 0.5);
  EXPECT_EQ(runs[1].seed, seeds[1]);
  EXPECT_EQ(runs[2].epsilon, 1.0);
  EXPECT_EQ(runs[2].seed, seeds[0]);
  EXPECT_EQ(runs[3].epsilon, 1.0);
  EXPECT_EQ(runs[3].seed, seeds[1]);
  for (const SweepRun& run : runs) {
    EXPECT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_EQ(run.scenario, "smooth_sensitivity");
    EXPECT_EQ(run.seed_index, run.seed == seeds[0] ? 0u : 1u);
  }
  EXPECT_EQ(result.value().failed_runs, 0u);
}

// The headline determinism contract: every cell of the sweep matrix is
// byte-identical to a standalone --scenario invocation with the same
// (ε, seed) — the sequential path runs UNCACHED, so this simultaneously
// proves sweep aggregation order, cross-run isolation, and
// cached-equals-uncached — and the whole document is invariant to the
// worker count.
TEST_F(SweepTest, RunsByteIdenticalToSequentialPathAtAnyThreadCount) {
  const ScenarioSpec* spec = FindScenario("fig2_as20");
  ASSERT_NE(spec, nullptr);

  // A small file-backed dataset keeps the 16 runs below (4 reference +
  // 3 thread counts × 4 sweep cells) affordable under sanitizers; the
  // dataset axis exercises the override plumbing at the same time.
  const std::string path = UniqueTempPath("sweep_ident");
  {
    Rng rng(99);
    PreferentialAttachmentOptions options;
    options.num_nodes = 150;
    options.edges_per_node = 2;
    ASSERT_TRUE(
        WriteEdgeList(PreferentialAttachmentGraph(options, rng), path).ok());
  }
  std::remove(BinaryCachePath(path).c_str());

  SweepSpec sweep;
  sweep.scenarios = {"fig2_as20"};
  sweep.datasets = {path};
  sweep.epsilons = {0.3, 0.6};
  sweep.seeds = 2;
  sweep.base.smoke = true;
  sweep.base.kronfit_iterations = 2;
  sweep.base.dataset_cache = true;

  // Sequential reference, cache disabled: today's --scenario path.
  const auto seeds = SweepSeeds(spec->defaults.seed, 2);
  std::vector<std::string> reference;
  for (double epsilon : sweep.epsilons) {
    for (uint64_t seed : seeds) {
      ScenarioOverrides overrides = sweep.base;
      overrides.dataset = path;
      overrides.epsilon = epsilon;
      overrides.seed = seed;
      ScenarioOutput output(spec->name, /*text_out=*/nullptr);
      ASSERT_TRUE(RunScenario(*spec, overrides, output).ok());
      reference.push_back(RunJson(output));
    }
  }

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    ScopedThreads scope(threads);
    StatCache::Instance().Clear();
    auto result = RunSweep(sweep);
    ASSERT_TRUE(result.ok());
    auto& runs = result.value().runs;
    ASSERT_EQ(runs.size(), reference.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_TRUE(runs[i].status.ok());
      EXPECT_EQ(RunJson(runs[i].output), reference[i]);
    }
    EXPECT_GT(StatCache::Instance().TotalCounters().hits, 0u);
  }
  std::remove(path.c_str());
  std::remove(BinaryCachePath(path).c_str());
}

TEST_F(SweepTest, DegenerateRunFailsInReportNotBatch) {
  SweepSpec spec;
  spec.scenarios = {"fig2_as20"};
  spec.epsilons = {0.5, 0.0};  // ε = 0 is the degenerate cell
  spec.base.smoke = true;
  spec.base.kronfit_iterations = 2;
  const auto result = RunSweep(spec);
  ASSERT_TRUE(result.ok());  // the batch itself succeeds
  ASSERT_EQ(result.value().runs.size(), 2u);
  EXPECT_TRUE(result.value().runs[0].status.ok());
  EXPECT_FALSE(result.value().runs[1].status.ok());
  EXPECT_EQ(result.value().runs[1].status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(result.value().failed_runs, 1u);

  const std::string json = SweepsJson(result.value(), 1);
  EXPECT_NE(json.find("\"schema\":\"dpkron.sweeps.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"failed_runs\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("INVALID_ARGUMENT"), std::string::npos);
  EXPECT_NE(json.find("\"cache\":{"), std::string::npos);
  EXPECT_NE(json.find("\"exact_sensitivity\":"), std::string::npos);
}

// A hostile realization count is data too: it fails its own cell, in
// RunScenario before any budget is charged, instead of exhausting memory
// and aborting the batch.
TEST_F(SweepTest, RealizationsOverTheMaximumFailTheCellNotTheBatch) {
  SweepSpec spec;
  spec.scenarios = {"fig2_as20"};
  spec.seeds = 2;
  spec.base.smoke = true;
  spec.base.realizations = kMaxRealizations + 1;
  const auto result = RunSweep(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().runs.size(), 2u);
  EXPECT_EQ(result.value().failed_runs, 2u);
  for (const SweepRun& run : result.value().runs) {
    EXPECT_EQ(run.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(run.status.message().find("realizations must be <= 10000"),
              std::string::npos)
        << run.status.ToString();
  }
  EXPECT_EQ(SweepsJson(result.value(), 1).find("\"budgets\":[{"),
            std::string::npos);
}

TEST_F(SweepTest, RejectsSeedAndAttemptCountsOverTheMaximum) {
  SweepSpec seeds;
  seeds.scenarios = {"fig2_as20"};
  seeds.seeds = kMaxSweepSeeds + 1;
  EXPECT_EQ(RunSweep(seeds).status().code(), StatusCode::kInvalidArgument);
  SweepSpec attempts;
  attempts.scenarios = {"fig2_as20"};
  attempts.max_attempts = kMaxSweepRetries + 2;
  EXPECT_EQ(RunSweep(attempts).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SweepTest, DatasetAxisOverridesScenarioDatasets) {
  const std::string path = UniqueTempPath("sweep_axis");
  {
    std::ofstream out(path);
    for (int i = 1; i < 80; ++i) {
      out << 0 << '\t' << i << '\n';
      out << i << '\t' << (i % 7) + 80 << '\n';
    }
  }
  std::remove(BinaryCachePath(path).c_str());

  SweepSpec spec;
  spec.scenarios = {"fig2_as20"};
  spec.datasets = {path};
  spec.base.smoke = true;
  spec.base.kronfit_iterations = 2;
  spec.base.dataset_cache = true;
  auto result = RunSweep(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().runs.size(), 1u);
  EXPECT_TRUE(result.value().runs[0].status.ok())
      << result.value().runs[0].status.ToString();
  EXPECT_EQ(result.value().runs[0].dataset, path);
  EXPECT_NE(RunJson(result.value().runs[0].output).find("sweep_axis"),
            std::string::npos);
  std::remove(path.c_str());
  std::remove(BinaryCachePath(path).c_str());
}

// The amortization gate of the sweep engine (acceptance criterion): a
// 5-ε × 3-seed sweep of the Table 1 estimation workload over a
// ca_test.edges-scale dataset (150-node preferential-attachment graph,
// the data/ fixture's construction) must beat 15 sequential uncached
// --scenario runs by ≥3× — the cross-run stat cache pays for each
// (graph, seed) KronFit and each graph's KronMom fit, sensitivity
// profile, degree sequence and triangle counts once instead of once per
// ε. Table 1 is the scenario whose per-run work is the estimators
// themselves (a figure scenario spends most of each run computing the
// statistics panels of its ε-dependent private sample, which no cache
// can share); 150 gradient iterations is a paper-quality fit rather
// than the CI-budget default. Release builds only: Debug codegen
// shifts the cached/uncached cost ratio unpredictably.
TEST_F(SweepTest, FiveEpsilonThreeSeedSweepIsThreeTimesFaster) {
#ifndef NDEBUG
  GTEST_SKIP() << "perf gate is calibrated for Release builds";
#endif
  // The data/ca_test.edges fixture regenerated in temp (tests cannot
  // assume the repo checkout as cwd): same generator family, same size.
  const std::string path = UniqueTempPath("sweep_perf");
  {
    Rng rng(2026);
    PreferentialAttachmentOptions options;
    options.num_nodes = 150;
    options.edges_per_node = 2;
    const Graph g = PreferentialAttachmentGraph(options, rng);
    ASSERT_TRUE(WriteEdgeList(g, path).ok());
  }
  std::remove(BinaryCachePath(path).c_str());

  SweepSpec spec;
  spec.scenarios = {"table1_parameters"};
  spec.datasets = {path};
  spec.epsilons = {0.05, 0.1, 0.2, 0.5, 1.0};
  spec.seeds = 3;
  spec.base.dataset_cache = true;
  spec.base.kronfit_iterations = 150;

  using Clock = std::chrono::steady_clock;
  // Sequential path first, uncached — 15 standalone runs.
  const ScenarioSpec* scenario = FindScenario("table1_parameters");
  ASSERT_NE(scenario, nullptr);
  const auto seeds = SweepSeeds(scenario->defaults.seed, spec.seeds);
  const auto sequential_start = Clock::now();
  for (double epsilon : spec.epsilons) {
    for (uint64_t seed : seeds) {
      ScenarioOverrides overrides = spec.base;
      overrides.dataset = path;
      overrides.epsilon = epsilon;
      overrides.seed = seed;
      ScenarioOutput output(scenario->name, /*text_out=*/nullptr);
      ASSERT_TRUE(RunScenario(*scenario, overrides, output).ok());
    }
  }
  const double sequential_seconds =
      std::chrono::duration<double>(Clock::now() - sequential_start).count();

  StatCache::Instance().Clear();  // cold cache: the sweep pays its own misses
  const auto result = RunSweep(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().runs.size(), 15u);
  EXPECT_EQ(result.value().failed_runs, 0u);
  EXPECT_GT(StatCache::Instance().TotalCounters().hits, 0u);

  const double speedup = sequential_seconds / result.value().elapsed_seconds;
  EXPECT_GE(speedup, 3.0) << "sequential " << sequential_seconds
                          << "s, sweep " << result.value().elapsed_seconds
                          << "s";
  std::printf("# sweep amortization: sequential %.2fs, sweep %.2fs (%.1fx)\n",
              sequential_seconds, result.value().elapsed_seconds, speedup);

  std::remove(path.c_str());
  std::remove(BinaryCachePath(path).c_str());
}

// ------------------------------------------------- checkpoint / resume

TEST_F(SweepTest, RejectsBadCheckpointKnobs) {
  SweepSpec resume_without_path;
  resume_without_path.scenarios = {"fig2_as20"};
  resume_without_path.resume = true;
  EXPECT_EQ(RunSweep(resume_without_path).status().code(),
            StatusCode::kInvalidArgument);

  SweepSpec zero_attempts;
  zero_attempts.scenarios = {"fig2_as20"};
  zero_attempts.max_attempts = 0;
  EXPECT_EQ(RunSweep(zero_attempts).status().code(),
            StatusCode::kInvalidArgument);
}

// The acceptance criterion: interrupt a checkpointed sweep anywhere
// (simulated by truncating its checkpoint journal at arbitrary byte
// offsets — including mid-record), resume, and the emitted document is
// byte-identical to the uninterrupted run's — at 1, 2 and 8 threads.
TEST_F(SweepTest, InterruptedThenResumedDocumentIsByteIdentical) {
  const std::string path = UniqueTempPath("sweep_resume");
  {
    Rng rng(99);
    PreferentialAttachmentOptions options;
    options.num_nodes = 150;
    options.edges_per_node = 2;
    ASSERT_TRUE(
        WriteEdgeList(PreferentialAttachmentGraph(options, rng), path).ok());
  }
  std::remove(BinaryCachePath(path).c_str());
  const std::string ckpt = UniqueTempPath("sweep_resume_ckpt") + ".journal";

  SweepSpec sweep;
  sweep.scenarios = {"fig2_as20"};
  sweep.datasets = {path};
  sweep.epsilons = {0.3, 0.6};
  sweep.base.smoke = true;
  sweep.base.kronfit_iterations = 2;
  sweep.base.dataset_cache = true;
  sweep.checkpoint_path = ckpt;

  // The `threads` label in the document comes from the caller; fix it so
  // documents from different worker counts are comparable bytes.
  constexpr int kDocThreads = 1;
  std::string reference;  // the uninterrupted document (threads == 1)

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    ScopedThreads scope(threads);

    // Uninterrupted checkpointed run — overwrites any prior checkpoint.
    SweepSpec fresh = sweep;
    fresh.resume = false;
    auto uninterrupted = RunSweep(fresh);
    ASSERT_TRUE(uninterrupted.ok());
    EXPECT_TRUE(uninterrupted.value().stable_document);
    EXPECT_EQ(uninterrupted.value().resumed_runs, 0u);
    EXPECT_EQ(uninterrupted.value().failed_runs, 0u);
    const std::string unint_json =
        SweepsJson(uninterrupted.value(), kDocThreads);
    if (reference.empty()) {
      reference = unint_json;
      // Stable form: wall time pinned, volatile cache counters omitted.
      EXPECT_NE(reference.find("\"stable\":true"), std::string::npos);
      EXPECT_NE(reference.find("\"elapsed_seconds\":0,"), std::string::npos);
      EXPECT_EQ(reference.find("\"hits\""), std::string::npos);
    }
    // ...and invariant to the worker count, like the unstable form.
    EXPECT_EQ(unint_json, reference);

    const std::string full = GetEnv()->ReadFileToString(ckpt).value();
    // Crash points: nothing durable yet, a mid-record tear, and a fully
    // intact checkpoint (the sweep finished; only the merge was lost).
    for (const uint64_t cut :
         {uint64_t{0}, uint64_t{full.size() / 2}, uint64_t{full.size()}}) {
      SCOPED_TRACE(cut);
      ASSERT_TRUE(WriteFileDurable(ckpt, full.substr(0, cut)).ok());
      SweepSpec resumed = sweep;
      resumed.resume = true;
      auto result = RunSweep(resumed);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(SweepsJson(result.value(), kDocThreads), reference);
      if (cut == full.size()) {
        // Every cell restored, none re-executed.
        EXPECT_EQ(result.value().resumed_runs, result.value().runs.size());
        for (const SweepRun& run : result.value().runs) {
          EXPECT_EQ(run.attempts, 0u);
          EXPECT_FALSE(run.checkpointed_run_json.empty());
        }
      }
    }
  }

  std::remove(path.c_str());
  std::remove(BinaryCachePath(path).c_str());
  std::remove(ckpt.c_str());
}

TEST_F(SweepTest, ResumeRefusesACheckpointFromADifferentSpec) {
  const std::string ckpt = UniqueTempPath("sweep_foreign_ckpt") + ".journal";
  SweepSpec spec;
  spec.scenarios = {"smooth_sensitivity"};
  spec.epsilons = {0.5};
  spec.base.smoke = true;
  spec.checkpoint_path = ckpt;
  auto first = RunSweep(spec);
  ASSERT_TRUE(first.ok());

  // Same checkpoint, different ε-grid: a different matrix. Merging the
  // old cells would attribute results to the wrong (ε, seed).
  SweepSpec other = spec;
  other.epsilons = {0.5, 1.0};
  other.resume = true;
  const auto refused = RunSweep(other);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("different sweep spec"),
            std::string::npos);
  std::remove(ckpt.c_str());
}

// ------------------------------------------------------ transient retry

TEST_F(SweepTest, TransientUnavailableRetriesAndMatchesCleanRun) {
  const std::string path = UniqueTempPath("sweep_retry");
  {
    Rng rng(99);
    PreferentialAttachmentOptions options;
    options.num_nodes = 150;
    options.edges_per_node = 2;
    ASSERT_TRUE(
        WriteEdgeList(PreferentialAttachmentGraph(options, rng), path).ok());
  }
  std::remove(BinaryCachePath(path).c_str());

  SweepSpec spec;
  spec.scenarios = {"fig2_as20"};
  spec.datasets = {path};
  spec.epsilons = {0.5};
  spec.base.smoke = true;
  spec.base.kronfit_iterations = 2;
  spec.max_attempts = 3;

  // Clean reference first (also proves retries are a no-op without
  // faults: one attempt).
  auto reference = RunSweep(spec);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference.value().runs.size(), 1u);
  ASSERT_TRUE(reference.value().runs[0].status.ok());
  EXPECT_EQ(reference.value().runs[0].attempts, 1u);
  const std::string expect = RunJson(reference.value().runs[0].output);

  // Flaky storage: the first dataset read fails UNAVAILABLE, the retry
  // succeeds — and produces the exact clean-run document.
  FaultInjectionEnv env;
  ScopedEnvOverride scope(&env);
  env.FailReads(/*after=*/0, Status::Unavailable("flaky storage"));
  auto result = RunSweep(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().runs.size(), 1u);
  EXPECT_TRUE(result.value().runs[0].status.ok())
      << result.value().runs[0].status.ToString();
  EXPECT_EQ(result.value().runs[0].attempts, 2u);
  EXPECT_EQ(RunJson(result.value().runs[0].output), expect);

  // A permanent failure must NOT retry: burning the retry budget (and
  // its backoff sleeps) on a deterministic error helps nobody.
  SweepSpec permanent = spec;
  permanent.datasets = {path + ".does_not_exist"};
  auto failed = RunSweep(permanent);
  ASSERT_TRUE(failed.ok());
  EXPECT_FALSE(failed.value().runs[0].status.ok());
  EXPECT_EQ(failed.value().runs[0].attempts, 1u);

  std::remove(path.c_str());
  std::remove(BinaryCachePath(path).c_str());
}

TEST_F(SweepTest, ResourceExhaustedIsTerminalNotRetried) {
  const std::string path = UniqueTempPath("sweep_exhausted");
  {
    Rng rng(99);
    PreferentialAttachmentOptions options;
    options.num_nodes = 150;
    options.edges_per_node = 2;
    ASSERT_TRUE(
        WriteEdgeList(PreferentialAttachmentGraph(options, rng), path).ok());
  }
  std::remove(BinaryCachePath(path).c_str());

  SweepSpec spec;
  spec.scenarios = {"fig2_as20"};
  spec.datasets = {path};
  spec.epsilons = {0.5};
  spec.base.smoke = true;
  spec.base.kronfit_iterations = 2;
  spec.max_attempts = 3;

  // RESOURCE_EXHAUSTED (full disk, spent budget) is deterministic for
  // the cell: unlike kUnavailable it must fail on the FIRST attempt —
  // no retries, no backoff sleeps.
  FaultInjectionEnv env;
  ScopedEnvOverride scope(&env);
  env.FailReads(/*after=*/0, Status::ResourceExhausted("quota exceeded"));
  auto result = RunSweep(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().runs.size(), 1u);
  EXPECT_EQ(result.value().runs[0].status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(result.value().runs[0].attempts, 1u);
  env.ClearFaults();

  std::remove(path.c_str());
  std::remove(BinaryCachePath(path).c_str());
}

TEST_F(SweepTest, RetryExhaustedCellIsNotCheckpointedAndResumeRerunsIt) {
  const std::string path = UniqueTempPath("sweep_unavail");
  {
    Rng rng(99);
    PreferentialAttachmentOptions options;
    options.num_nodes = 150;
    options.edges_per_node = 2;
    ASSERT_TRUE(
        WriteEdgeList(PreferentialAttachmentGraph(options, rng), path).ok());
  }
  std::remove(BinaryCachePath(path).c_str());
  const std::string ckpt = UniqueTempPath("sweep_unavail_ckpt") + ".journal";

  SweepSpec spec;
  spec.scenarios = {"fig2_as20"};
  spec.datasets = {path};
  spec.epsilons = {0.5};
  spec.base.smoke = true;
  spec.base.kronfit_iterations = 2;
  spec.checkpoint_path = ckpt;

  FaultInjectionEnv env;
  ScopedEnvOverride scope(&env);
  // Storage stays down past the (single) attempt: the cell ends
  // UNAVAILABLE and must NOT be checkpointed — it never produced a
  // result worth merging.
  env.FailReads(/*after=*/0, Status::Unavailable("storage down"));
  auto down = RunSweep(spec);
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down.value().failed_runs, 1u);
  EXPECT_EQ(down.value().runs[0].status.code(), StatusCode::kUnavailable);
  env.ClearFaults();

  // --resume IS the retry: the cell executes now that storage is back,
  // nothing is served from the checkpoint, and the document matches an
  // uninterrupted checkpointed run's bytes.
  SweepSpec resumed = spec;
  resumed.resume = true;
  auto recovered = RunSweep(resumed);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().resumed_runs, 0u);
  EXPECT_EQ(recovered.value().failed_runs, 0u);
  EXPECT_TRUE(recovered.value().runs[0].status.ok());

  const std::string ckpt2 = ckpt + "2";
  SweepSpec clean = spec;
  clean.checkpoint_path = ckpt2;
  auto uninterrupted = RunSweep(clean);
  ASSERT_TRUE(uninterrupted.ok());
  EXPECT_EQ(SweepsJson(recovered.value(), 1),
            SweepsJson(uninterrupted.value(), 1));

  std::remove(path.c_str());
  std::remove(BinaryCachePath(path).c_str());
  std::remove(ckpt.c_str());
  std::remove(ckpt2.c_str());
}

// ------------------------------------------------- multi-process shards

TEST_F(SweepTest, RejectsBadShardKnobs) {
  SweepSpec spec;
  spec.scenarios = {"smooth_sensitivity"};
  spec.base.smoke = true;

  SweepSpec zero_shards = spec;
  zero_shards.shards = 0;
  EXPECT_EQ(RunSweep(zero_shards).status().code(),
            StatusCode::kInvalidArgument);

  SweepSpec bad_id = spec;
  bad_id.shards = 2;
  bad_id.shard_id = 2;
  EXPECT_EQ(RunSweep(bad_id).status().code(), StatusCode::kInvalidArgument);

  // A shard worker without a checkpoint journal would execute its cells
  // and then have nowhere to put them — there is nothing to merge.
  SweepSpec no_journal = spec;
  no_journal.shards = 2;
  EXPECT_EQ(RunSweep(no_journal).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(MergeSweepShards(spec, {}).status().code(),
            StatusCode::kInvalidArgument);
}

// The tentpole acceptance criterion: run the matrix as N worker
// "processes" (isolated StatCaches sharing one on-disk tier), merge
// their shard journals, and the merged document is byte-identical to a
// single-process checkpointed run — at 1, 2 and 8 threads, cold and
// warm disk cache. Also proves the partition (each cell executed by
// exactly one worker) and that warm workers draw from the shared disk
// tier.
TEST_F(SweepTest, ShardedAndMergedDocumentIsByteIdenticalToSingleProcess) {
  const std::string path = UniqueTempPath("sweep_shard");
  {
    Rng rng(99);
    PreferentialAttachmentOptions options;
    options.num_nodes = 150;
    options.edges_per_node = 2;
    ASSERT_TRUE(
        WriteEdgeList(PreferentialAttachmentGraph(options, rng), path).ok());
  }
  std::remove(BinaryCachePath(path).c_str());
  const std::string ckpt = UniqueTempPath("sweep_shard_ckpt") + ".journal";
  const std::string cache_root = ::testing::TempDir() + "/sweep_shard_dc_" +
                                 std::to_string(::getpid());
  std::filesystem::remove_all(cache_root);

  SweepSpec sweep;
  sweep.scenarios = {"fig2_as20"};
  sweep.datasets = {path};
  sweep.epsilons = {0.3, 0.6};
  sweep.seeds = 2;
  sweep.base.smoke = true;
  sweep.base.kronfit_iterations = 2;
  sweep.base.dataset_cache = true;

  constexpr int kDocThreads = 1;
  // The single-process reference: an ordinary checkpointed run with NO
  // disk tier.
  SweepSpec single = sweep;
  single.checkpoint_path = ckpt;
  auto ref = RunSweep(single);
  ASSERT_TRUE(ref.ok());
  const size_t cells = ref.value().runs.size();
  ASSERT_EQ(cells, 4u);
  const std::string reference = SweepsJson(ref.value(), kDocThreads);

  constexpr uint32_t kShards = 2;
  ASSERT_TRUE(StatCache::Instance().AttachDiskTier(cache_root).ok());
  bool warm_worker_hit_disk = false;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    ScopedThreads scope(threads);
    std::vector<size_t> executions(cells, 0);
    std::vector<std::string> shard_paths;
    for (uint32_t i = 0; i < kShards; ++i) {
      SCOPED_TRACE(i);
      StatCache::Instance().Clear();  // each worker is its own process
      SweepSpec worker = sweep;
      worker.shards = kShards;
      worker.shard_id = i;
      worker.checkpoint_path = ShardCheckpointPath(ckpt, i);
      auto result = RunSweep(worker);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result.value().failed_runs, 0u);
      ASSERT_EQ(result.value().runs.size(), cells);
      for (size_t c = 0; c < cells; ++c) {
        if (!result.value().runs[c].shard_skipped) ++executions[c];
      }
      if (i > 0 || threads > 1) {
        // Any worker after the very first has a warm disk tier: the
        // shared graph-keyed entries were written by its predecessors.
        EXPECT_GT(result.value().cache_total.disk_hits, 0u);
        warm_worker_hit_disk = true;
      }
      shard_paths.push_back(worker.checkpoint_path);
    }
    // The partition covers the matrix exactly once.
    for (size_t c = 0; c < cells; ++c) {
      EXPECT_EQ(executions[c], 1u) << "cell " << c;
    }
    auto merged = MergeSweepShards(sweep, shard_paths);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_TRUE(merged.value().stable_document);
    EXPECT_EQ(merged.value().failed_runs, 0u);
    EXPECT_EQ(merged.value().resumed_runs, cells);
    for (const SweepRun& run : merged.value().runs) {
      EXPECT_FALSE(run.shard_skipped);
    }
    EXPECT_EQ(SweepsJson(merged.value(), kDocThreads), reference);
  }
  EXPECT_TRUE(warm_worker_hit_disk);

  StatCache::Instance().DetachDiskTier();
  std::filesystem::remove_all(cache_root);
  std::remove(path.c_str());
  std::remove(BinaryCachePath(path).c_str());
  std::remove(ckpt.c_str());
  for (uint32_t i = 0; i < kShards; ++i) {
    std::remove(ShardCheckpointPath(ckpt, i).c_str());
  }
}

TEST_F(SweepTest, MergeRefusesMissingForeignAndIncompleteShards) {
  const std::string ckpt = UniqueTempPath("sweep_merge_ref") + ".journal";
  SweepSpec spec;
  spec.scenarios = {"smooth_sensitivity"};
  spec.epsilons = {0.5, 1.0};
  spec.base.smoke = true;

  // Run only worker 0 of 2.
  SweepSpec worker = spec;
  worker.shards = 2;
  worker.shard_id = 0;
  worker.checkpoint_path = ShardCheckpointPath(ckpt, 0);
  ASSERT_TRUE(RunSweep(worker).ok());

  // Worker 1's journal does not exist: merge refuses by name.
  const auto missing = MergeSweepShards(
      spec, {ShardCheckpointPath(ckpt, 0), ShardCheckpointPath(ckpt, 1)});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing.status().message().find("worker never ran"),
            std::string::npos);

  // Worker 0 alone holds only its own cells: incomplete, with the
  // remedy named.
  const auto incomplete =
      MergeSweepShards(spec, {ShardCheckpointPath(ckpt, 0)});
  ASSERT_FALSE(incomplete.ok());
  EXPECT_EQ(incomplete.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(incomplete.status().message().find("cells missing"),
            std::string::npos);

  // A journal from a DIFFERENT spec (foreign ε grid → foreign matrix
  // fingerprint) refuses exactly like --resume would.
  SweepSpec other = spec;
  other.epsilons = {0.5};
  const auto foreign =
      MergeSweepShards(other, {ShardCheckpointPath(ckpt, 0)});
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(foreign.status().message().find("different sweep spec"),
            std::string::npos);

  std::remove(ShardCheckpointPath(ckpt, 0).c_str());
}

// The perf half of the tentpole (acceptance criterion): with a
// persistent tier attached, a REPEATED sweep — new process, memo gone,
// disk warm — must beat its own cold run by ≥3×, because every durable
// domain (KronFit above all, at paper-quality iteration counts) is
// deserialized instead of recomputed. Release builds only, like the
// in-memory amortization gate above.
TEST_F(SweepTest, WarmDiskRepeatedSweepIsThreeTimesFasterThanCold) {
#ifndef NDEBUG
  GTEST_SKIP() << "perf gate is calibrated for Release builds";
#endif
  const std::string path = UniqueTempPath("sweep_warm_disk");
  {
    Rng rng(2026);
    PreferentialAttachmentOptions options;
    options.num_nodes = 150;
    options.edges_per_node = 2;
    ASSERT_TRUE(
        WriteEdgeList(PreferentialAttachmentGraph(options, rng), path).ok());
  }
  std::remove(BinaryCachePath(path).c_str());
  const std::string cache_root = ::testing::TempDir() + "/sweep_warm_dc_" +
                                 std::to_string(::getpid());
  std::filesystem::remove_all(cache_root);

  SweepSpec spec;
  spec.scenarios = {"table1_parameters"};
  spec.datasets = {path};
  spec.epsilons = {0.05, 0.1, 0.2, 0.5, 1.0};
  spec.seeds = 3;
  spec.base.dataset_cache = true;
  spec.base.kronfit_iterations = 150;

  ASSERT_TRUE(StatCache::Instance().AttachDiskTier(cache_root).ok());
  const auto cold = RunSweep(spec);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.value().failed_runs, 0u);
  EXPECT_GT(cold.value().cache_total.disk_misses, 0u);
  EXPECT_EQ(cold.value().cache_total.disk_hits, 0u);

  StatCache::Instance().Clear();  // restart: memo gone, disk warm
  const auto warm = RunSweep(spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().failed_runs, 0u);
  EXPECT_GT(warm.value().cache_total.disk_hits, 0u);

  // The disk hit/miss counters are part of the document (unstable form).
  const std::string json = SweepsJson(warm.value(), 1);
  EXPECT_NE(json.find("\"disk_hits\":"), std::string::npos);
  EXPECT_NE(json.find("\"disk_misses\":"), std::string::npos);

  const double speedup =
      cold.value().elapsed_seconds / warm.value().elapsed_seconds;
  EXPECT_GE(speedup, 3.0) << "cold " << cold.value().elapsed_seconds
                          << "s, warm " << warm.value().elapsed_seconds << "s";
  std::printf("# disk warm-start: cold %.2fs, warm %.2fs (%.1fx)\n",
              cold.value().elapsed_seconds, warm.value().elapsed_seconds,
              speedup);

  StatCache::Instance().DetachDiskTier();
  std::filesystem::remove_all(cache_root);
  std::remove(path.c_str());
  std::remove(BinaryCachePath(path).c_str());
}

}  // namespace
}  // namespace dpkron
