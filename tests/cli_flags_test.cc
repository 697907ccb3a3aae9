// The command-line flag table: strict numeric parsing (every hostile
// value is a Status naming the flag), the shared runtime flags, and
// ApplyRuntimeFlags' combination check. The binaries' real mains are
// covered by the CliFlagsBinary.* ctest entries in CMakeLists.txt.

#include "src/core/cli_flags.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/parallel.h"
#include "src/common/stat_cache.h"
#include "src/core/sweep.h"

namespace dpkron {
namespace {

// Every numeric flag of dpkron_experiments and dpkrond, declared with
// the destination types, minimums and maximums the binaries give them.
struct BinaryFlags {
  BinaryFlags() {
    AddRuntimeFlags(table, &runtime, &overrides);
    table.Number("--seed", &overrides.seed, uint64_t{0}, "");
    table.Number("--epsilon", &overrides.epsilon, 0.0, "");
    table.Number("--realizations", &overrides.realizations, 0u, "",
                 kMaxRealizations);
    table.Number("--trials", &overrides.trials, 1u, "");
    table.NumberList("--sweep-epsilons", "A,B", &overrides.sweep_epsilons,
                     0.0, "");
    table.Number("--sweep-seeds", &sweep_seeds, 1u, "", kMaxSweepSeeds);
    table.Number("--retries", &retries, 0u, "", kMaxSweepRetries);
    table.Number("--sweep-shards", &sweep_shards, 1u, "");
    table.Number("--sweep-shard-id", &sweep_shard_id, 0u, "");
    table.Number("--port", &port, uint16_t{0}, "");
    table.Number("--workers", &workers, 1, "", kMaxThreads);
    table.Number("--queue-depth", &queue_depth, size_t{1}, "");
    table.Number("--compact-threshold", &compact_threshold, uint64_t{0}, "");
    table.NumberList("--budgets", "EPS[,DELTA]", &budgets, 0.0, "");
  }

  Status Parse(const std::vector<std::string>& args) const {
    std::vector<const char*> argv = {"binary"};
    for (const std::string& arg : args) argv.push_back(arg.c_str());
    return table.Parse(static_cast<int>(argv.size()), argv.data());
  }

  FlagTable table{"usage: binary"};
  RuntimeFlags runtime;
  ScenarioOverrides overrides;
  uint32_t sweep_seeds = 1;
  uint32_t retries = 0;
  uint32_t sweep_shards = 1;
  std::optional<uint32_t> sweep_shard_id;
  uint16_t port = 7471;
  int workers = 4;
  size_t queue_depth = 64;
  uint64_t compact_threshold = 0;
  std::optional<std::vector<double>> budgets;
};

struct NumericFlag {
  const char* name;
  const char* below_min;  // nullptr: the minimum is the type's lowest
  const char* overflow;
};

constexpr const char* kIntOverflow = "99999999999999999999";
constexpr const char* kRealOverflow = "1e999";

const NumericFlag kNumericFlags[] = {
    {"--threads", "0", kIntOverflow},
    {"--cache-mem-budget", "0", kIntOverflow},
    {"--disk-cache-budget", "0", kIntOverflow},
    {"--kronfit-iterations", "0", kIntOverflow},
    {"--seed", nullptr, kIntOverflow},
    {"--epsilon", "-0.5", kRealOverflow},
    {"--realizations", nullptr, kIntOverflow},
    {"--trials", "0", kIntOverflow},
    {"--sweep-epsilons", "0.2,-0.5", kRealOverflow},
    {"--sweep-seeds", "0", kIntOverflow},
    {"--retries", nullptr, kIntOverflow},
    {"--sweep-shards", "0", kIntOverflow},
    {"--sweep-shard-id", nullptr, kIntOverflow},
    {"--port", nullptr, "65536"},
    {"--workers", "0", kIntOverflow},
    {"--queue-depth", "0", kIntOverflow},
    {"--compact-threshold", nullptr, kIntOverflow},
    {"--budgets", "-1", kRealOverflow},
};

TEST(CliFlagsTest, EveryNumericFlagRefusesHostileValues) {
  for (const NumericFlag& flag : kNumericFlags) {
    std::vector<std::string> values = {"", "abc", "-1", "1x", " 1", "1.5.2",
                                       flag.overflow};
    if (flag.below_min != nullptr) values.push_back(flag.below_min);
    for (const std::string& value : values) {
      BinaryFlags flags;
      const std::string arg = std::string(flag.name) + "=" + value;
      const Status parsed = flags.Parse({arg});
      EXPECT_EQ(parsed.code(), StatusCode::kInvalidArgument) << arg;
      EXPECT_NE(parsed.message().find(flag.name), std::string::npos)
          << arg << " -> " << parsed.message();
    }
  }
}

TEST(CliFlagsTest, ByteBudgetsRefuseMegabytesThatOverflowTheByteCount) {
  for (const char* name : {"--cache-mem-budget", "--disk-cache-budget"}) {
    BinaryFlags flags;
    const Status parsed =
        flags.Parse({std::string(name) + "=" + std::to_string(1ull << 44)});
    EXPECT_EQ(parsed.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(parsed.message().find(name), std::string::npos)
        << parsed.message();
  }
  BinaryFlags flags;
  ASSERT_TRUE(flags.Parse({"--cache-mem-budget=" +
                           std::to_string((1ull << 44) - 1)})
                  .ok());
  EXPECT_EQ(flags.runtime.cache_mem_budget, ((1ull << 44) - 1) << 20);
}

TEST(CliFlagsTest, ValidValuesSetTheFields) {
  BinaryFlags flags;
  const Status parsed = flags.Parse({
      "--threads=3", "--disk-cache=cache_dir", "--cache-mem-budget=64",
      "--disk-cache-budget=2", "--dataset-cache", "--kronfit-iterations=5", "--smoke",
      "--seed=18446744073709551615", "--epsilon=0.25", "--realizations=0",
      "--trials=7", "--sweep-epsilons=0.2,1e-1,0", "--sweep-seeds=3",
      "--retries=0", "--sweep-shards=4", "--sweep-shard-id=0", "--port=0",
      "--workers=2", "--queue-depth=8", "--compact-threshold=0",
      "--budgets=2,0.25"});
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  EXPECT_EQ(flags.runtime.threads, 3);
  EXPECT_EQ(flags.runtime.disk_cache, "cache_dir");
  EXPECT_EQ(flags.runtime.cache_mem_budget, 64ull << 20);
  EXPECT_EQ(flags.runtime.disk_cache_budget, 2ull << 20);
  EXPECT_TRUE(flags.overrides.dataset_cache);
  EXPECT_EQ(flags.overrides.kronfit_iterations, 5u);
  EXPECT_TRUE(flags.overrides.smoke);
  EXPECT_EQ(flags.overrides.seed, 18446744073709551615ull);
  EXPECT_EQ(flags.overrides.epsilon, 0.25);
  EXPECT_EQ(flags.overrides.realizations, 0u);
  EXPECT_EQ(flags.overrides.trials, 7u);
  EXPECT_EQ(flags.overrides.sweep_epsilons,
            (std::vector<double>{0.2, 0.1, 0.0}));
  EXPECT_EQ(flags.sweep_seeds, 3u);
  EXPECT_EQ(flags.retries, 0u);
  EXPECT_EQ(flags.sweep_shards, 4u);
  EXPECT_EQ(flags.sweep_shard_id, 0u);
  EXPECT_EQ(flags.port, 0);
  EXPECT_EQ(flags.workers, 2);
  EXPECT_EQ(flags.queue_depth, 8u);
  EXPECT_EQ(flags.compact_threshold, 0u);
  EXPECT_EQ(flags.budgets, (std::vector<double>{2.0, 0.25}));
}

// Every count that sizes an allocation or a thread pool has a stated
// maximum: the maximum itself passes, one more is refused naming the
// flag and the maximum.
TEST(CliFlagsTest, CountsAcceptTheirMaximumAndRefuseOneMore) {
  struct Bound {
    const char* name;
    uint64_t max;
  };
  const Bound bounds[] = {
      {"--realizations", kMaxRealizations}, {"--sweep-seeds", kMaxSweepSeeds},
      {"--retries", kMaxSweepRetries},      {"--threads", kMaxThreads},
      {"--workers", kMaxThreads},
  };
  for (const Bound& bound : bounds) {
    const std::string flag = std::string(bound.name) + "=";
    BinaryFlags flags;
    EXPECT_TRUE(flags.Parse({flag + std::to_string(bound.max)}).ok())
        << bound.name;
    const std::string over = std::to_string(bound.max + 1);
    const Status refused = flags.Parse({flag + over});
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << bound.name;
    EXPECT_EQ(refused.message(),
              std::string(bound.name) + ": expected an integer <= " +
                  std::to_string(bound.max) + ", got '" + over + "'");
  }
  BinaryFlags flags;
  ASSERT_TRUE(flags.Parse({"--realizations=10000", "--sweep-seeds=10000",
                           "--retries=100", "--threads=1024",
                           "--workers=1024"})
                  .ok());
  EXPECT_EQ(flags.overrides.realizations, 10000u);
  EXPECT_EQ(flags.sweep_seeds, 10000u);
  EXPECT_EQ(flags.retries, 100u);
  EXPECT_EQ(flags.runtime.threads, 1024);
  EXPECT_EQ(flags.workers, 1024);
}

// DPKRON_THREADS is parsed like --threads, and only when --threads is
// absent; a malformed value is refused before anything is applied.
TEST(CliFlagsTest, ApplyParsesDpkronThreadsStrictly) {
  const char* saved = std::getenv("DPKRON_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  const int threads = ParallelThreadCount();
  const bool was_enabled = StatCache::Instance().enabled();
  for (const char* value : {"4x", "abc", "0", "-3", "", " 2", "99999999999",
                            "1025"}) {
    ASSERT_EQ(::setenv("DPKRON_THREADS", value, 1), 0);
    const Status applied = ApplyRuntimeFlags(RuntimeFlags{});
    EXPECT_EQ(applied.code(), StatusCode::kInvalidArgument) << value;
    EXPECT_EQ(applied.message().rfind("DPKRON_THREADS: expected an integer", 0),
              0u)
        << applied.message();
    EXPECT_EQ(ParallelThreadCount(), threads) << value;
    EXPECT_EQ(StatCache::Instance().enabled(), was_enabled) << value;
  }
  const int other = threads == 3 ? 2 : 3;
  ASSERT_EQ(::setenv("DPKRON_THREADS", std::to_string(other).c_str(), 1), 0);
  EXPECT_TRUE(ApplyRuntimeFlags(RuntimeFlags{}).ok());
  EXPECT_EQ(ParallelThreadCount(), other);
  // --threads wins; the environment is not even parsed.
  ASSERT_EQ(::setenv("DPKRON_THREADS", "abc", 1), 0);
  RuntimeFlags runtime;
  runtime.threads = threads;
  EXPECT_TRUE(ApplyRuntimeFlags(runtime).ok());
  EXPECT_EQ(ParallelThreadCount(), threads);

  if (saved != nullptr) {
    ::setenv("DPKRON_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("DPKRON_THREADS");
  }
  StatCache::Instance().set_enabled(was_enabled);
}

TEST(CliFlagsTest, UnknownFlagsAndMisplacedValuesAreRefused) {
  BinaryFlags flags;
  const Status unknown = flags.Parse({"--smoke", "--no-such-flag=1"});
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.message().find("--no-such-flag=1"), std::string::npos);
  // A switch takes no value; a valued flag needs one.
  EXPECT_EQ(flags.Parse({"--smoke=1"}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(flags.Parse({"--threads"}).code(), StatusCode::kInvalidArgument);
  // Prefixes are not names.
  EXPECT_EQ(flags.Parse({"--thread=2"}).code(), StatusCode::kNotFound);
  // Retired spellings: the source kind picks a graph's backing, and
  // DPKRON_FORCE_SCALAR=1 is the one way to force scalar dispatch.
  for (const char* retired : {"--mmap", "--force-scalar"}) {
    const Status refused = flags.Parse({retired});
    EXPECT_EQ(refused.code(), StatusCode::kNotFound) << retired;
    EXPECT_NE(refused.message().find(retired), std::string::npos);
  }
}

TEST(CliFlagsTest, UsageListsEveryFlagFromTheTable) {
  BinaryFlags flags;
  flags.table.Section("a heading:");
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  flags.table.PrintUsage(out);
  std::rewind(out);
  std::string usage;
  for (int c; (c = std::fgetc(out)) != EOF;) usage += static_cast<char>(c);
  std::fclose(out);
  for (const char* line : {"usage: binary\n", "\na heading:\n",
                           "  --smoke ", "  --threads=N ", "  --epsilon=X ",
                           "  --disk-cache=DIR ", "  --cache-mem-budget=MB ",
                           "  --budgets=EPS[,DELTA] "}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
  }
  for (const NumericFlag& flag : kNumericFlags) {
    EXPECT_NE(usage.find(std::string("  ") + flag.name + "="),
              std::string::npos)
        << flag.name;
  }
}

TEST(CliFlagsTest, ApplyRefusesDiskCacheBudgetWithoutDiskCache) {
  RuntimeFlags runtime;
  runtime.threads = 3;
  runtime.disk_cache_budget = 64ull << 20;
  const int threads = ParallelThreadCount();
  const bool was_enabled = StatCache::Instance().enabled();
  const Status applied = ApplyRuntimeFlags(runtime);
  EXPECT_EQ(applied.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(applied.message().find("--disk-cache-budget"), std::string::npos);
  EXPECT_NE(applied.message().find("--disk-cache=DIR"), std::string::npos);
  // Refused before anything was applied.
  EXPECT_EQ(ParallelThreadCount(), threads);
  EXPECT_EQ(StatCache::Instance().enabled(), was_enabled);
}

}  // namespace
}  // namespace dpkron
