// AVX2 implementation of the KronFit digit-pair kernels (see
// likelihood_kernels.h for the dispatch and determinism contract).
// Every kernel keeps the floating-point adds in the scalar chain order
// — the double outputs are released, so their bits are frozen. The
// streaming EdgeGradient kernel vectorizes the integer digit counting
// around that fixed chain; the Metropolis loop
// keeps even the index math scalar (measured fastest — see the comment
// in MetropolisSwapsAvx2) and spends its win on the exp-free accept
// test instead.

#include "src/kronfit/likelihood_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/common/macros.h"
#include "src/common/rng.h"
#include "src/kronfit/permutation.h"

#ifdef __AVX2__
#include <immintrin.h>

namespace dpkron {
namespace {

// positions[w] for 8 node ids at once. One hardware gather beats both
// staging alternatives measured here: eight scalar stores + a 32-byte
// reload cannot store-forward (no single covering store, ~20-cycle
// stall per block), and an insert chain is 2-µop-per-insert port-5
// traffic that serializes against the shuffle-heavy popcount LUT below.
inline __m256i GatherPositions(__m256i w, const uint32_t* positions) {
  return _mm256_i32gather_epi32(reinterpret_cast<const int*>(positions),
                                w, 4);
}

// Per-32-bit-lane popcount: nibble shuffle-LUT, then the
// maddubs(×1)/madd(×1) pair folds the 4 byte counts of each lane.
inline __m256i Popcount32x8(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0,
                       1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi =
      _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i bytes = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
  return _mm256_madd_epi16(_mm256_maddubs_epi16(bytes, _mm256_set1_epi8(1)),
                           _mm256_set1_epi16(1));
}

// Padded-table cell indices for 8 position pairs:
// (popcount(p&q&mask) << shift) | popcount((p^q)&mask).
inline __m256i DigitIndex8(__m256i p, __m256i q, __m256i mask,
                           __m128i shift) {
  const __m256i both = _mm256_and_si256(_mm256_and_si256(p, q), mask);
  const __m256i diff = _mm256_and_si256(_mm256_xor_si256(p, q), mask);
  return _mm256_or_si256(_mm256_sll_epi32(Popcount32x8(both), shift),
                         Popcount32x8(diff));
}

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

void EdgeGradientChunkAvx2(const uint32_t* offsets,
                           const uint32_t* adjacency, size_t begin,
                           size_t end, const uint32_t* positions,
                           uint32_t mask, uint32_t shift,
                           const double* grad4_padded, double out[4]) {
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>(mask));
  const __m128i vshift = _mm_cvtsi32_si128(static_cast<int>(shift));
  alignas(32) uint32_t idx[8];
  // Lane l of acc accumulates component l (a, b, c, unused) in exactly
  // the scalar per-component edge order — lane-wise adds do not mix
  // lanes, so each component's chain matches its scalar chain.
  __m256d acc = _mm256_setzero_pd();
  for (size_t u = begin; u < end; ++u) {
    // Lists are strictly sorted, so the v > u half-edges are a suffix —
    // but finding it by binary search costs more than it saves at SKG
    // degrees. Walk the whole row instead: a lane compare marks the
    // v > u lanes, all-≤ prefix blocks short-circuit before the
    // position loads, and the selected lanes are added in ascending
    // order (the scalar edge order).
    const uint32_t* row = adjacency + offsets[u];
    const size_t len = offsets[u + 1] - offsets[u];
    const uint32_t pu = positions[u];
    const __m256i vpu = _mm256_set1_epi32(static_cast<int>(pu));
    const __m256i vu = _mm256_set1_epi32(static_cast<int>(u));
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      const __m256i w = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(row + i));
      // Node ids fit in 31 bits, so the signed compare is exact.
      const unsigned keep =
          static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(
              _mm256_cmpgt_epi32(w, vu))));
      if (keep == 0) continue;
      const __m256i vpw = GatherPositions(w, positions);
      _mm256_store_si256(reinterpret_cast<__m256i*>(idx),
                         DigitIndex8(vpu, vpw, vmask, vshift));
      if (keep == 0xFFu) {
        for (int j = 0; j < 8; ++j) {
          acc = _mm256_add_pd(
              acc, _mm256_load_pd(grad4_padded + size_t{idx[j]} * 4));
        }
      } else {
        for (int j = 0; j < 8; ++j) {
          if ((keep >> j) & 1u) {
            acc = _mm256_add_pd(
                acc, _mm256_load_pd(grad4_padded + size_t{idx[j]} * 4));
          }
        }
      }
    }
    for (; i < len; ++i) {
      const uint32_t w = row[i];
      if (w <= u) continue;
      const size_t cell = ScalarIndex(pu, positions[w], mask, shift) * 4;
      acc = _mm256_add_pd(acc, _mm256_load_pd(grad4_padded + cell));
    }
  }
  _mm256_store_pd(out, acc);
  _mm256_zeroupper();
}

}  // namespace dpkron

#else  // !__AVX2__ — unreachable stubs (dispatch never selects kAvx2).

namespace dpkron {

void MetropolisSwapsAvx2(const uint32_t*, const uint32_t*, uint32_t,
                         PermutationState*, Rng&, uint64_t, uint32_t,
                         uint32_t, const double*) {
  DPKRON_CHECK_MSG(false, "AVX2 kernel called in a non-AVX2 build");
}

void EdgeGradientChunkAvx2(const uint32_t*, const uint32_t*, size_t,
                           size_t, const uint32_t*, uint32_t, uint32_t,
                           const double*, double[4]) {
  DPKRON_CHECK_MSG(false, "AVX2 kernel called in a non-AVX2 build");
}

}  // namespace dpkron

#endif  // __AVX2__
