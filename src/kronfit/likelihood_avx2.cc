// AVX2 implementation of the KronFit Metropolis swap loop (see
// likelihood_kernels.h for the dispatch and determinism contract). The
// loop keeps the floating-point adds in the scalar chain order and even
// the index math scalar (measured fastest — see the comment in
// MetropolisSwapsAvx2), and spends its win on the exp-free accept test.

#include "src/kronfit/likelihood_kernels.h"

#include <bit>
#include <cmath>

#include "src/common/macros.h"
#include "src/common/rng.h"
#include "src/kronfit/permutation.h"

#ifdef __AVX2__
#include <immintrin.h>

namespace dpkron {
namespace {

inline size_t ScalarIndex(uint32_t p, uint32_t q, uint32_t mask,
                          uint32_t shift) {
  const uint32_t n11 =
      static_cast<uint32_t>(__builtin_popcount((p & q) & mask));
  const uint32_t nb =
      static_cast<uint32_t>(__builtin_popcount((p ^ q) & mask));
  return (size_t{n11} << shift) | nb;
}

// VEX-encoded exp approximation for delta ∈ (−41, 0) with proven
// relative error < 2e-11 against the true exp: Cody–Waite reduction —
// |n| ≤ 60, so n·ln2_hi is exact — plus a degree-9 Taylor polynomial on
// |r| ≤ ln2/2 (truncation ≤ 1e-11), Estrin-combined to shorten the
// dependency chain. Keeps the hot loop free of legacy-SSE libm code
// while the ymm uppers are dirty.
inline double ApproxExp(double delta) {
  constexpr double kInvLn2 = 1.4426950408889634074;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 20 low bits 0
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kRoundShift = 6755399441055744.0;  // 1.5 · 2^52
  const double nd = (delta * kInvLn2 + kRoundShift) - kRoundShift;
  const double r = (delta - nd * kLn2Hi) - nd * kLn2Lo;
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double p01 = 1.0 + r;
  const double p23 = (1.0 / 2.0) + r * (1.0 / 6.0);
  const double p45 = (1.0 / 24.0) + r * (1.0 / 120.0);
  const double p67 = (1.0 / 720.0) + r * (1.0 / 5040.0);
  const double p89 = (1.0 / 40320.0) + r * (1.0 / 362880.0);
  const double poly =
      p01 + r2 * (p23 + r2 * p45) + (r4 * r2) * (p67 + r2 * p89);
  // 2^n by exponent construction: n ∈ [−60, 0] keeps it normal.
  return poly * std::bit_cast<double>(
                    (uint64_t{1023} + static_cast<int64_t>(nd)) << 52);
}

// Metropolis accept test for delta ∈ (−40, 0): decides
// "uniform < std::exp(delta)" without calling std::exp in almost every
// case. ApproxExp brackets libm's exp (itself within a few ulp of true)
// inside ex·(1 ± 4e-11). When uniform falls outside that bracket the
// comparison against libm's value is already decided — the decision,
// and hence the trajectory, is bit-identical to the scalar path. Only
// an ambiguous uniform (probability ~8e-11 per test) falls back to
// std::exp itself.
inline bool AcceptNegativeDelta(double delta, double uniform) {
  const double ex = ApproxExp(delta);
  const double margin = 4e-11 * ex;
  if (uniform < ex - margin) return true;
  if (uniform >= ex + margin) return false;
  return uniform < std::exp(delta);
}

}  // namespace

void MetropolisSwapsAvx2(const uint32_t* offsets, const uint32_t* adjacency,
                         uint32_t n, PermutationState* sigma, Rng& rng,
                         uint64_t count, uint32_t mask, uint32_t shift,
                         const double* edge_term_padded) {
  // SwapNodes permutes entries in place, so the positions pointer stays
  // valid across swaps.
  const uint32_t* positions = sigma->sigma().data();
  const double* et = edge_term_padded;
  // Below this, exp(delta) < 2⁻⁵³ = NextDouble's granularity, so
  // "uniform < exp(delta)" can only hold for uniform == 0.0 (and then
  // still needs exp(delta) > 0 — checked with std::exp itself in that
  // once-per-2⁵³-draws case, matching the scalar loop even where exp
  // underflows to zero).
  constexpr double kExpUnderflow = -40.0;
  constexpr double kUlp = 0x1.0p-53;
  for (uint64_t step = 0; step < count; ++step) {
    const uint32_t u = static_cast<uint32_t>(rng.NextBounded(n));
    const uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
    if (u == v) continue;
    const uint32_t pu = positions[u], pv = positions[v];
    // The delta walk is the scalar SwapDelta chain verbatim — same term
    // order, one accumulator, so the value (and the trajectory decided
    // on it) is bit-identical by construction. A long line of fancier
    // kernels was measured against this plain walk on AVX2 hardware and
    // every one of them lost: gathered 8-lane index math, 4-accumulator
    // reassociation (+ an ε-guarded accept to keep decisions exact),
    // staged prefetch pipelines across chains, and uint16 position
    // shadows all sat at 0.5–1.0× — out-of-order execution already
    // overlaps the random position/table loads across iterations, so
    // the loop is latency-bound on work no restructuring removes. What
    // this path DOES win over the dispatch fallback is per-swap
    // abstraction cost (no cross-TU SwapDelta call, no span
    // construction, padded shift|or indexing instead of a multiply) and
    // the accept test below (no libm exp on the ~80% of proposals with
    // delta < 0) — ~1.1× end to end on the Metropolis loop.
    double delta = 0.0;
    for (uint32_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const uint32_t w = adjacency[i];
      if (w == v) continue;
      const uint32_t q = positions[w];
      delta += et[ScalarIndex(pv, q, mask, shift)] -
               et[ScalarIndex(pu, q, mask, shift)];
    }
    for (uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const uint32_t w = adjacency[i];
      if (w == u) continue;
      const uint32_t q = positions[w];
      delta += et[ScalarIndex(pu, q, mask, shift)] -
               et[ScalarIndex(pv, q, mask, shift)];
    }
    bool accept = delta >= 0.0;
    if (!accept) {
      // Inline VEX replica of Rng::NextDouble(): the same single
      // NextU64 draw, bit-identical output (the 53-bit value converts
      // exactly; the power-of-two scale is exact). Calling NextDouble()
      // itself would execute its legacy-SSE conversion with the ymm
      // uppers dirty.
      const double uniform =
          static_cast<double>(rng.NextU64() >> 11) * kUlp;
      accept = delta < kExpUnderflow
                   ? (uniform == 0.0 && uniform < std::exp(delta))
                   : AcceptNegativeDelta(delta, uniform);
    }
    if (accept) sigma->SwapNodes(u, v);
  }
  _mm256_zeroupper();
}

}  // namespace dpkron

#else  // !__AVX2__ — unreachable stub (dispatch never selects kAvx2).

namespace dpkron {

void MetropolisSwapsAvx2(const uint32_t*, const uint32_t*, uint32_t,
                         PermutationState*, Rng&, uint64_t, uint32_t,
                         uint32_t, const double*) {
  DPKRON_CHECK_MSG(false, "AVX2 kernel called in a non-AVX2 build");
}

}  // namespace dpkron

#endif  // __AVX2__
