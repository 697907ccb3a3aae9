// Approximate SKG log-likelihood and its gradient (Leskovec–Faloutsos).
//
// For an observed undirected graph G aligned to Kronecker ids by σ, the
// exact log-likelihood under our unordered-pair convention is
//   l(Θ, σ) = Σ_{{u,v}∈E} log P_σ(u)σ(v) + Σ_{{u,v}∉E} log(1 − P_σ(u)σ(v)).
// Evaluating the second sum costs O(N²); KronFit's trick is the Taylor
// expansion log(1−p) ≈ −p − p²/2 whose sum over *all* pairs has a closed
// form under the Kronecker structure (and is independent of σ), plus a
// per-edge correction:
//   l ≈ Σ_{E} [log P + P + P²/2] − C(Θ),
//   C(Θ) = ½[(a+2b+c)^k − (a+c)^k] + ¼[(a²+2b²+c²)^k − (a²+c²)^k].
// Both C and the edge terms have cheap analytic (a,b,c)-gradients.
//
// Every per-pair quantity depends on positions (p, q) only through the
// digit-pair counts (n00, nb, n11) with n00 + nb + n11 = k, so the
// constructor tabulates the edge term and the three gradient factors
// over the O(k²) lattice {(n11, nb) : n11 + nb ≤ k}. The hot calls
// (EdgeTerm, SwapDelta, EdgeGradient) then cost two popcounts and a
// table read — no log/pow in the Metropolis inner loop. The tables are
// built with the exact expressions the direct path evaluates, so table
// and direct values are bit-identical (tests enforce EXPECT_EQ); the
// *Direct methods retain the untabulated computation as the parity
// reference.

#ifndef DPKRON_KRONFIT_LIKELIHOOD_H_
#define DPKRON_KRONFIT_LIKELIHOOD_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/graph/graph_view.h"
#include "src/kronfit/permutation.h"
#include "src/skg/initiator.h"
#include "src/skg/kronecker.h"

namespace dpkron {

// Gradient with respect to (a, b, c).
using Gradient3 = std::array<double, 3>;

// Evaluator bound to one (Θ, k); rebuild when Θ changes (cheap: O(k²)
// lookup tables).
class KronFitLikelihood {
 public:
  // theta entries are clamped to [kThetaFloor, 1] internally so that
  // log P stays finite.
  KronFitLikelihood(const Initiator2& theta, uint32_t k);

  static constexpr double kThetaFloor = 1e-9;

  uint32_t k() const { return k_; }
  const Initiator2& theta() const { return theta_; }

  // Per-edge contribution for Kronecker positions (p, q):
  // log P_pq + P_pq + P_pq²/2. Table lookup.
  double EdgeTerm(uint32_t p, uint32_t q) const {
    return edge_term_[TableIndex(p, q)];
  }

  // Untabulated reference for EdgeTerm (identical bits; kept for the
  // parity tests and as executable documentation of the table build).
  double EdgeTermDirect(uint32_t p, uint32_t q) const;

  // ∇_(a,b,c) of EdgeTerm(p, q): (n_θ/θ)·(1 + P + P²) per entry.
  // Table lookup.
  Gradient3 EdgeGradientTerm(uint32_t p, uint32_t q) const {
    const size_t idx = TableIndex(p, q);
    return {grad_a_[idx], grad_b_[idx], grad_c_[idx]};
  }

  // Untabulated reference for EdgeGradientTerm (identical bits).
  Gradient3 EdgeGradientTermDirect(uint32_t p, uint32_t q) const;

  // Closed-form no-edge mass C(Θ) (σ-independent).
  double NoEdgeTerm() const;
  Gradient3 NoEdgeGradient() const;

  // Full approximate log-likelihood of `graph` under alignment σ.
  // Chunk-ordered ParallelSum over CSR node ranges: thread-count
  // invariant, though the chunking fixes the summation order.
  double LogLikelihood(GraphView graph, const PermutationState& sigma) const;

  // Change in Σ_E EdgeTerm if nodes u and v exchanged positions; O(deg u +
  // deg v). (The no-edge term does not move.) `sigma` is the state
  // *before* the swap. Scalar at every SIMD level: the AVX2 swap loop
  // (MetropolisSwaps) inlines this exact term chain.
  double SwapDelta(GraphView graph, const PermutationState& sigma,
                   uint32_t u, uint32_t v) const;

  // Runs `count` Metropolis swap steps on `sigma` inside the AVX2
  // translation unit when the AVX2 path is active (one ISA boundary per
  // call instead of per swap — see likelihood_kernels.h); returns false
  // without consuming any draws when inactive, so the caller runs its
  // scalar loop. The trajectory is bit-identical to that scalar loop.
  bool MetropolisSwaps(GraphView graph, PermutationState* sigma,
                       Rng& rng, uint64_t count) const;

  // ∇_(a,b,c) Σ_E EdgeTerm at alignment σ. Combined with NoEdgeGradient()
  // this is the full likelihood gradient. Chunk-ordered 3-component
  // parallel reduction over CSR node ranges; scalar at every SIMD level
  // (a gathered AVX2 twin measured no faster across a KronFit iteration).
  Gradient3 EdgeGradient(GraphView graph,
                         const PermutationState& sigma) const;

 private:
  // (n00, nb, n11) digit-pair counts for positions (p, q).
  std::array<uint32_t, 3> DigitCounts(uint32_t p, uint32_t q) const;

  // Row-major index into the (k+1)×(k+1) tables for the digit counts of
  // (p, q): n11·(k+1) + nb. Only cells with n11 + nb ≤ k are reachable.
  size_t TableIndex(uint32_t p, uint32_t q) const {
    const uint32_t both = (p & q) & mask_;
    const uint32_t only = (p ^ q) & mask_;
    const uint32_t n11 = static_cast<uint32_t>(__builtin_popcount(both));
    const uint32_t nb = static_cast<uint32_t>(__builtin_popcount(only));
    return size_t{n11} * (k_ + 1) + nb;
  }

  Initiator2 theta_;
  uint32_t k_;
  uint32_t mask_;  // low-k bits; hoisted out of the digit-count hot path
  uint32_t shift_;  // padded-table row shift: stride 2^shift_ ≥ k+1
  EdgeProbability2 prob_;
  // (k+1)² tables over (n11, nb); see TableIndex.
  std::vector<double> edge_term_;
  std::vector<double> grad_a_, grad_b_, grad_c_;
  // The Metropolis AVX2 loop's table (likelihood_kernels.h): edge_term_
  // re-laid-out with a power-of-two row stride so the cell index is a
  // shift+or. Values are copied from the dense table, so both layouts
  // are bit-identical.
  std::vector<double> edge_term_padded_;
};

}  // namespace dpkron

#endif  // DPKRON_KRONFIT_LIKELIHOOD_H_
