// Integer-threshold tables and the AVX2 lane kernel of the exact SKG
// sampler (SkgSampleMethod::kExact, sampler.cc). The kernel is defined
// in exact_sampler_avx2.cc, compiled with -mavx2; reach it only behind
// Avx2Active().
//
// The exact sampler flips one coin per pair (u, v), u < v, in row-major
// order on the caller's stream: a pair with probability p in (0, 1)
// takes one draw x and is an edge iff NextDouble() < p. NextDouble() is
// exactly (x >> 11)·2^−53, so that test is the integer compare
// (x >> 11) < T with T = ⌈p·2^53⌉. p depends only on the pair's class
// (n11, nb) = (popcount(u & v), popcount(u ^ v)), so T is a table
// lookup, and the largest T a row can reach bounds every draw of that
// row: a draw at or above the bound (>99% of them on the registry Θ)
// needs no lookup at all.

#ifndef DPKRON_SKG_EXACT_SAMPLER_KERNELS_H_
#define DPKRON_SKG_EXACT_SAMPLER_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/graph/graph_builder.h"

namespace dpkron {

struct ExactSweepTables {
  // T = ⌈p·2^53⌉ of class (n11, nb) at threshold[n11 * (k + 1) + nb];
  // kNoDraw for p ≤ 0 and kAlwaysEdge for p ≥ 1, the two cases in which
  // Rng::NextBernoulli takes no draw.
  static constexpr uint64_t kNoDraw = 0;
  static constexpr uint64_t kAlwaysEdge = UINT64_MAX;

  uint32_t k = 0;
  std::vector<uint64_t> threshold;
  // By popcount(u): the largest T of any class a row can reach.
  std::vector<uint64_t> row_bound;
  // Every class a pair can fall in (nb ≥ 1) has p in (0, 1): the sweep
  // takes exactly one draw per pair, so a draw can be tested against
  // the row bound before its class is known, and stretches of the sweep
  // can start at jumped-ahead stream states.
  bool every_pair_draws = false;

  uint32_t ClassIndex(uint32_t u, uint32_t v) const {
    return static_cast<uint32_t>(__builtin_popcount(u & v)) * (k + 1) +
           static_cast<uint32_t>(__builtin_popcount(u ^ v));
  }
};

// The threshold T of a coin with probability p: for every draw x,
// NextDouble() < p ⇔ (x >> 11) < T. p·2^53 only shifts the exponent, so
// the ceiling is of the exact product.
inline uint64_t ExactCoinThreshold(double p) {
  if (p <= 0.0) return ExactSweepTables::kNoDraw;
  if (p >= 1.0) return ExactSweepTables::kAlwaysEdge;
  return static_cast<uint64_t>(std::ceil(std::ldexp(p, 53)));
}

// Moves the sweep position (u, v) `steps` pairs forward in the
// row-major order of u < v < n; the end of the sweep is (n − 1, n).
inline void AdvancePair(uint32_t n, uint64_t steps, uint32_t& u,
                        uint32_t& v) {
  while (v < n && steps >= uint64_t{n} - v) {
    steps -= n - v;
    ++u;
    v = u + 1;
  }
  v += static_cast<uint32_t>(steps);
}

// One stretch of the sweep: a xoshiro256 state and the pair its next
// draw belongs to.
struct ExactLane {
  uint64_t s[4];
  uint32_t u;
  uint32_t v;
};

// Runs four consecutive stretches of `block` draws each side by side,
// one xoshiro256** stream position per 64-bit lane of a ymm register;
// ×5 and ×9 are shift+add, since AVX2 has no 64-bit multiply. On return
// every lane holds the state and position after its stretch. Requires
// tables.every_pair_draws. Edge keys are appended to `keys` in sweep
// order.
void SweepExactLanesAvx2(const ExactSweepTables& tables, uint32_t n,
                         uint64_t block, ExactLane lanes[4],
                         std::vector<uint64_t>* keys);

}  // namespace dpkron

#endif  // DPKRON_SKG_EXACT_SAMPLER_KERNELS_H_
