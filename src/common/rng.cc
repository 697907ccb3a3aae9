#include "src/common/rng.h"

#include <cmath>
#include <deque>
#include <mutex>

#include "src/common/fnv.h"
#include "src/common/macros.h"

namespace dpkron {
namespace {

inline uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// xoshiro256's state transition (the linear engine; the ** scrambler
// only shapes the output).
inline void StepState(uint64_t s[4]) {
  const uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = Rotl(s[3], 45);
}

// A 256×256 matrix over GF(2) acting on the state, stored by columns:
// col[j] is the image of the state whose only set bit is bit j % 64 of
// word j / 64.
struct Gf2Matrix {
  uint64_t col[256][4];
};

void ApplyGf2(const Gf2Matrix& m, uint64_t s[4]) {
  uint64_t out[4] = {0, 0, 0, 0};
  for (int j = 0; j < 256; ++j) {
    const uint64_t take = 0 - ((s[j / 64] >> (j % 64)) & 1);
    for (int w = 0; w < 4; ++w) out[w] ^= m.col[j][w] & take;
  }
  for (int w = 0; w < 4; ++w) s[w] = out[w];
}

// Discard steps the low kDirectBits bits of n one by one (at most 255
// steps, cheaper than a matrix product) and jumps the rest.
constexpr int kDirectBits = 8;

// M^(2^i), where M is the one-step matrix. Squared out on demand (8 KiB
// and ~0.2 ms each) and kept for the process, so a caller that only ever
// jumps 2^16 pays for 17 matrices, not 64. The deque keeps returned
// references valid while later callers append.
const Gf2Matrix& JumpPower(int i) {
  static std::mutex mu;
  static std::deque<Gf2Matrix> powers;
  std::lock_guard<std::mutex> lock(mu);
  if (powers.empty()) {
    Gf2Matrix& m = powers.emplace_back();
    for (int j = 0; j < 256; ++j) {
      uint64_t* col = m.col[j];
      for (int w = 0; w < 4; ++w) col[w] = 0;
      col[j / 64] = uint64_t{1} << (j % 64);
      StepState(col);
    }
  }
  while (static_cast<int>(powers.size()) <= i) {
    // Square: column j of M·M is M applied to column j of M.
    const Gf2Matrix& m = powers.back();
    Gf2Matrix& squared = powers.emplace_back(m);
    for (int j = 0; j < 256; ++j) ApplyGf2(m, squared.col[j]);
  }
  return powers[i];
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
  // All-zero state is the one invalid xoshiro state; splitmix64 cannot
  // produce four zero outputs in a row, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  StepState(state_);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  DPKRON_CHECK_GT(bound, 0u);
  // Lemire's nearly-divisionless unbiased method.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  if (have_gaussian_) {
    have_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * factor;
  have_gaussian_ = true;
  return u * factor;
}

double Rng::NextLaplace(double scale) {
  DPKRON_CHECK_GT(scale, 0.0);
  // Inverse CDF on u ~ U(-1/2, 1/2): x = -b·sgn(u)·ln(1-2|u|).
  const double u = NextDouble() - 0.5;
  const double sign = (u < 0.0) ? -1.0 : 1.0;
  return -scale * sign * std::log1p(-2.0 * std::fabs(u));
}

double Rng::NextExponential(double lambda) {
  DPKRON_CHECK_GT(lambda, 0.0);
  // -log(1-u) avoids log(0) since NextDouble() < 1.
  return -std::log1p(-NextDouble()) / lambda;
}

uint64_t Rng::NextGeometric(double p) {
  DPKRON_CHECK_GT(p, 0.0);
  DPKRON_CHECK_LE(p, 1.0);
  if (p == 1.0) return 0;
  const double u = NextDouble();
  const double failures = std::floor(std::log1p(-u) / std::log1p(-p));
  // For p below ~1e-19 the quotient can pass 2^64 (or overflow to inf),
  // where the cast is undefined: saturate instead.
  if (!(failures < 0x1p64)) return UINT64_MAX;
  return static_cast<uint64_t>(failures);
}

uint64_t Rng::NextBinomial(uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  // Symmetry keeps the skip parameter ≤ 1/2 (skips stay cheap).
  if (p > 0.5) return n - NextBinomial(n, 1.0 - p);
  const double mean = static_cast<double>(n) * p;
  const double variance = mean * (1.0 - p);
  if (variance > 1024.0) {
    double draw = mean + std::sqrt(variance) * NextGaussian();
    draw = std::min(std::max(draw, 0.0), static_cast<double>(n));
    return static_cast<uint64_t>(std::llround(draw));
  }
  // Geometric skipping: jump over each run of failures in one draw.
  uint64_t successes = 0;
  uint64_t remaining = n;
  for (;;) {
    const uint64_t failures = NextGeometric(p);
    if (failures >= remaining) break;
    ++successes;
    remaining -= failures + 1;
  }
  return successes;
}

void Rng::FillLaplace(double scale, double* out, size_t n) {
  DPKRON_CHECK_GT(scale, 0.0);
  for (size_t i = 0; i < n; ++i) {
    // Inline NextLaplace body (check hoisted): same draws, same math,
    // same bits as n sequential calls.
    const double u = NextDouble() - 0.5;
    const double sign = (u < 0.0) ? -1.0 : 1.0;
    out[i] = -scale * sign * std::log1p(-2.0 * std::fabs(u));
  }
}

void Rng::FillBinomial(uint64_t trials, double p, uint64_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = NextBinomial(trials, p);
}

Rng::State Rng::SaveState() const {
  State state;
  for (int i = 0; i < 4; ++i) state.s[i] = state_[i];
  state.have_gaussian = have_gaussian_;
  state.spare_gaussian = spare_gaussian_;
  return state;
}

void Rng::RestoreState(const State& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.s[i];
  have_gaussian_ = state.have_gaussian;
  spare_gaussian_ = state.spare_gaussian;
}

uint64_t Rng::StateFingerprint() const {
  uint64_t hash = Fnv1a64(state_, sizeof(state_));
  const uint64_t gaussian = have_gaussian_ ? 1 : 0;
  hash = Fnv1a64(&gaussian, sizeof(gaussian), hash);
  hash = Fnv1a64(&spare_gaussian_, sizeof(spare_gaussian_), hash);
  return hash;
}

void Rng::Discard(uint64_t n) {
  for (uint64_t i = n & ((uint64_t{1} << kDirectBits) - 1); i > 0; --i) {
    StepState(state_);
  }
  n >>= kDirectBits;
  // Powers of M commute, so the jumps apply in any order.
  for (int i = kDirectBits; n != 0; ++i, n >>= 1) {
    if (n & 1) ApplyGf2(JumpPower(i), state_);
  }
}

Rng Rng::Split() {
  // Derive a child seed from two outputs; the child re-expands through
  // splitmix64, decorrelating it from the parent's remaining stream.
  const uint64_t a = NextU64();
  const uint64_t b = NextU64();
  return Rng(a ^ Rotl(b, 31) ^ 0xD1B54A32D192ED03ULL);
}

std::vector<uint32_t> Rng::Permutation(uint32_t n) {
  std::vector<uint32_t> perm(n);
  for (uint32_t i = 0; i < n; ++i) perm[i] = i;
  for (uint32_t i = n; i > 1; --i) {
    const uint32_t j = static_cast<uint32_t>(NextBounded(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace dpkron
