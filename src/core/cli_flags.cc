#include "src/core/cli_flags.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/parallel.h"
#include "src/common/stat_cache.h"

namespace dpkron {

void FlagTable::Bool(std::string name, bool* dest, std::string help,
                     bool value) {
  entries_.push_back({std::move(name), "", std::move(help),
                      [dest, value](std::string_view) {
                        *dest = value;
                        return Status::Ok();
                      }});
}

void FlagTable::NumberList(std::string name, std::string metavar,
                           std::optional<std::vector<double>>* dest,
                           double min, std::string help) {
  Value(name, std::move(metavar),
        [name, dest, min](std::string_view text) {
          std::vector<double> values;
          for (size_t begin = 0; begin <= text.size();) {
            const size_t comma = std::min(text.find(',', begin), text.size());
            double value = 0.0;
            const Status parsed = ParseNumber(
                name, text.substr(begin, comma - begin), min, &value);
            if (!parsed.ok()) return parsed;
            values.push_back(value);
            begin = comma + 1;
          }
          *dest = std::move(values);
          return Status::Ok();
        },
        std::move(help));
}

void FlagTable::Megabytes(std::string name, uint64_t* bytes,
                          std::string help) {
  Value(name, "MB",
        [name, bytes](std::string_view text) {
          uint64_t mb = 0;
          Status parsed = ParseNumber<uint64_t>(name, text, 1, &mb);
          if (parsed.ok() && mb >= uint64_t{1} << 44) {
            parsed = Status::InvalidArgument(
                name + ": " + std::string(text) +
                " MB overflows a 64-bit byte count");
          }
          if (parsed.ok()) *bytes = mb << 20;
          return parsed;
        },
        std::move(help));
}

void FlagTable::Value(std::string name, std::string metavar, Setter set,
                      std::string help) {
  entries_.push_back(
      {std::move(name), std::move(metavar), std::move(help), std::move(set)});
}

void FlagTable::Section(std::string title) {
  entries_.push_back({"", "", std::move(title), nullptr});
}

Status FlagTable::ParseFlag(std::string_view arg) const {
  const size_t eq = arg.find('=');
  for (const Entry& entry : entries_) {
    if (entry.name.empty() || entry.name != arg.substr(0, eq)) continue;
    const bool takes_value = !entry.metavar.empty();
    if (takes_value != (eq != std::string_view::npos)) {
      return Status::InvalidArgument(
          entry.name + (takes_value ? " needs a value: " + entry.name + "=" +
                                          entry.metavar
                                    : " takes no value"));
    }
    return entry.set(takes_value ? arg.substr(eq + 1) : "");
  }
  return Status::NotFound("unknown flag: " + std::string(arg));
}

Status FlagTable::Parse(int argc, const char* const* argv) const {
  for (int i = 1; i < argc; ++i) {
    const Status parsed = ParseFlag(argv[i]);
    if (!parsed.ok()) return parsed;
  }
  return Status::Ok();
}

bool FlagTable::ParseOrUsage(int argc, const char* const* argv) const {
  const Status parsed = Parse(argc, argv);
  if (parsed.ok()) return true;
  std::fprintf(stderr, "%s\n", parsed.message().c_str());
  if (parsed.code() == StatusCode::kNotFound) {
    std::fprintf(stderr, "\n");
    PrintUsage(stderr);
  }
  return false;
}

void FlagTable::PrintUsage(std::FILE* out) const {
  std::fprintf(out, "%s\n\n", usage_.c_str());
  for (const Entry& entry : entries_) {
    if (entry.name.empty()) {
      std::fprintf(out, "\n%s\n", entry.help.c_str());
    } else {
      const std::string flag =
          entry.name + (entry.metavar.empty() ? "" : "=" + entry.metavar);
      std::fprintf(out, "  %-24s %s\n", flag.c_str(), entry.help.c_str());
    }
  }
}

void AddRuntimeFlags(FlagTable& table, RuntimeFlags* runtime,
                     ScenarioOverrides* overrides) {
  table.Section("runtime (dpkron_experiments and dpkrond):");
  table.Number("--threads", &runtime->threads, 1,
               "compute-pool threads (default: DPKRON_THREADS, else all)",
               kMaxThreads);
  table.String("--disk-cache", "DIR", &runtime->disk_cache,
               "attach the persistent StatCache tier rooted at DIR");
  table.Megabytes("--cache-mem-budget", &runtime->cache_mem_budget,
                  "cap the in-memory StatCache; oldest entries evict");
  table.Megabytes("--disk-cache-budget", &runtime->disk_cache_budget,
                  "cap the --disk-cache size; oldest entries are unlinked");
  table.Bool("--dataset-cache", &overrides->dataset_cache,
             "keep a .dpkb sidecar next to file datasets");
  table.Number("--kronfit-iterations", &overrides->kronfit_iterations, 1u,
               "override KronFit iterations");
  table.Bool("--smoke", &overrides->smoke, "shrink every axis for a fast pass");
}

Status ApplyRuntimeFlags(const RuntimeFlags& runtime) {
  if (runtime.disk_cache_budget > 0 && runtime.disk_cache.empty()) {
    return Status::InvalidArgument(
        "--disk-cache-budget requires --disk-cache=DIR");
  }
  int threads = runtime.threads;
  const char* env_threads = std::getenv("DPKRON_THREADS");
  if (threads == 0 && env_threads != nullptr) {
    const Status parsed = ParseNumber("DPKRON_THREADS", env_threads, 1,
                                      &threads, kMaxThreads);
    if (!parsed.ok()) return parsed;
  }
  if (threads > 0) SetParallelThreadCount(threads);
  // Cross-run stat caching is on in both binaries: cached values are
  // bit-identical to recomputation, so no output changes.
  StatCache& cache = StatCache::Instance();
  cache.set_enabled(true);
  if (!runtime.disk_cache.empty()) {
    DiskCache::Options disk_options;
    disk_options.byte_budget = runtime.disk_cache_budget;
    const Status attached =
        cache.AttachDiskTier(runtime.disk_cache, disk_options);
    if (!attached.ok()) {
      return Status(attached.code(), "--disk-cache: " + attached.message());
    }
  }
  cache.set_byte_budget(runtime.cache_mem_budget);  // 0 = unbounded
  return Status::Ok();
}

}  // namespace dpkron
