// Command-line flags for the dpkron binaries: one table-driven parser,
// and the runtime flags dpkron_experiments and dpkrond share.
//
// Parsing is strict: a number must be the whole value, fit its
// destination's type and be at least the flag's minimum (a real must
// also be finite). Every refusal is a Status naming the flag, and the
// usage text is printed from the same table.

#ifndef DPKRON_CORE_CLI_FLAGS_H_
#define DPKRON_CORE_CLI_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/status.h"
#include "src/core/scenario.h"

namespace dpkron {

// The most compute-pool threads (--threads, DPKRON_THREADS) or dpkrond
// request workers (--workers) a binary starts.
inline constexpr int kMaxThreads = 1024;

// Parses all of `text` as a T in [min, max] (T: an integer type or
// double).
template <typename T>
Status ParseNumber(std::string_view flag, std::string_view text, T min,
                   T* out, T max = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end && value >= min;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (ok && value <= max) {
    *out = value;
    return Status::Ok();
  }
  // An integer too large for T is over the maximum too.
  const bool too_big =
      ok || (std::is_integral_v<T> && ptr == end &&
             ec == std::errc::result_out_of_range && text.front() != '-');
  std::ostringstream message;
  message << flag << ": expected "
          << (std::is_integral_v<T> ? "an integer" : "a finite number")
          << (too_big ? " <= " : " >= ") << +(too_big ? max : min)
          << ", got '" << text << "'";
  return Status::InvalidArgument(message.str());
}

class FlagTable {
 public:
  // Stores a flag's value ("" for a flag that takes none).
  using Setter = std::function<Status(std::string_view value)>;

  // `usage` is the first line of the usage text.
  explicit FlagTable(std::string usage) : usage_(std::move(usage)) {}

  // --name, no value: sets *dest = value.
  void Bool(std::string name, bool* dest, std::string help,
            bool value = true);
  // --name=METAVAR into a std::string or std::optional<std::string>.
  template <typename Dest>
  void String(std::string name, std::string metavar, Dest* dest,
              std::string help) {
    Value(std::move(name), std::move(metavar),
          [dest](std::string_view text) {
            *dest = std::string(text);
            return Status::Ok();
          },
          std::move(help));
  }
  // --name=N (--name=X for a double) in [min, max] into a T or
  // std::optional<T>.
  template <typename T, typename Dest>
  void Number(std::string name, Dest* dest, T min, std::string help,
              T max = std::numeric_limits<T>::max()) {
    Value(name, std::is_integral_v<T> ? "N" : "X",
          [name, dest, min, max](std::string_view text) {
            T value{};
            const Status parsed = ParseNumber(name, text, min, &value, max);
            if (parsed.ok()) *dest = value;
            return parsed;
          },
          std::move(help));
  }
  // --name=METAVAR as "A,B,...": every item a double >= min.
  void NumberList(std::string name, std::string metavar,
                  std::optional<std::vector<double>>* dest, double min,
                  std::string help);
  // --name=MB: MiB >= 1, stored as a byte count that must fit 64 bits.
  void Megabytes(std::string name, uint64_t* bytes, std::string help);
  // --name=METAVAR through `set`.
  void Value(std::string name, std::string metavar, Setter set,
             std::string help);
  // A heading in the usage text.
  void Section(std::string title);

  // Parses argv[1..argc): an unknown flag is kNotFound, any other
  // refusal kInvalidArgument.
  Status Parse(int argc, const char* const* argv) const;
  // Parse, printing a refusal (and for an unknown flag the usage) to
  // stderr; false means the caller exits 2.
  bool ParseOrUsage(int argc, const char* const* argv) const;
  void PrintUsage(std::FILE* out) const;

 private:
  struct Entry {
    std::string name;     // "--flag"; "" for a section heading
    std::string metavar;  // "" for a flag that takes no value
    std::string help;
    Setter set;
  };

  Status ParseFlag(std::string_view arg) const;

  std::string usage_;
  std::vector<Entry> entries_;
};

// The process-wide runtime flags of both binaries.
struct RuntimeFlags {
  int threads = 0;  // 0 = not given: DPKRON_THREADS, else hardware
  std::string disk_cache;          // StatCache disk-tier root; "" = none
  uint64_t cache_mem_budget = 0;   // bytes; 0 = unbounded
  uint64_t disk_cache_budget = 0;  // bytes; 0 = unbounded
};

// Adds the flags both binaries share: --threads, --disk-cache,
// --cache-mem-budget and --disk-cache-budget into `runtime`;
// --dataset-cache, --kronfit-iterations and --smoke into `overrides`.
void AddRuntimeFlags(FlagTable& table, RuntimeFlags* runtime,
                     ScenarioOverrides* overrides);

// Sets the thread count (--threads, else a DPKRON_THREADS environment
// value, which is parsed like --threads), enables the process-wide
// StatCache, attaches its disk tier and sets both byte budgets. The
// flag combination and DPKRON_THREADS are checked before anything is
// applied.
Status ApplyRuntimeFlags(const RuntimeFlags& runtime);

}  // namespace dpkron

#endif  // DPKRON_CORE_CLI_FLAGS_H_
