// AVX2 kernel for the KronFit digit-pair table likelihood (defined in
// likelihood_avx2.cc, compiled with -mavx2; reach only behind
// Avx2Active()).
//
// The kernel takes the *padded* edge-term table KronFitLikelihood builds
// alongside its dense one: stride 2^shift ≥ k+1 over nb, so the cell
// index for a position pair (p, q) is
//   (popcount(p&q&mask) << shift) | popcount((p^q)&mask)
// — a shift+or instead of a multiply. The other likelihood entry points
// (LogLikelihood, EdgeGradient and SwapDelta) have no AVX2 twin:
// LogLikelihood runs once per fit, SwapDelta only in the scalar swap
// loop, and a vectorized EdgeGradient measured no faster across a KronFit
// iteration.

#ifndef DPKRON_KRONFIT_LIKELIHOOD_KERNELS_H_
#define DPKRON_KRONFIT_LIKELIHOOD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace dpkron {

class PermutationState;
class Rng;

// Runs `count` Metropolis swap steps of one chain entirely inside the
// AVX2 translation unit: proposal draws, SwapDelta, accept test, and
// SwapNodes per step, with the vector constants hoisted once per call.
// Keeping the whole loop on one side of the ISA boundary matters more
// than the vector width — crossing between AVX2 kernel code and
// legacy-SSE caller code per swap leaves dirty ymm uppers that give
// every SSE instruction in the caller a false dependency.
//
// The trajectory is bit-identical to the scalar RunSwaps loop: the
// delta is computed with the scalar walk's exact term order (one
// accumulator — vectorized deltas were measured slower here, see the
// in-loop comment), the same draws are consumed in the same order
// (NextDouble only when delta < 0), and the accept test decides
// "uniform < std::exp(delta)" without calling libm exp in almost every
// case: a VEX polynomial brackets exp(delta) to relative 4e-11 and only
// a uniform inside the bracket (probability ~8e-11) consults std::exp
// itself. For delta < −40, exp is below NextDouble's granularity 2⁻⁵³,
// so acceptance requires uniform to be exactly 0 (std::exp is then
// consulted once to match the scalar comparison even where exp
// underflows to zero).
void MetropolisSwapsAvx2(const uint32_t* offsets, const uint32_t* adjacency,
                         uint32_t n, PermutationState* sigma, Rng& rng,
                         uint64_t count, uint32_t mask, uint32_t shift,
                         const double* edge_term_padded);

}  // namespace dpkron

#endif  // DPKRON_KRONFIT_LIKELIHOOD_KERNELS_H_
