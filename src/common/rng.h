// Deterministic random number generation for all stochastic components.
//
// Every sampler / mechanism in dpkron takes an explicit Rng&, so whole
// pipelines are reproducible from a single seed. The generator is
// xoshiro256** (Blackman & Vigna) seeded through splitmix64, which is fast,
// has 256 bits of state, and passes BigCrush — more than adequate for
// graph sampling and Laplace noise (this is a privacy *research* library;
// for deployments a cryptographically secure source should replace it,
// see README "Limitations").

#ifndef DPKRON_COMMON_RNG_H_
#define DPKRON_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dpkron {

// xoshiro256** PRNG with convenience distributions.
//
// Cache-line aligned: every draw writes the state, and parallel kernels
// keep one stream per chain, chunk or region side by side in a
// std::vector (SplitRngStreams), so unaligned neighbours would keep
// taking each other's line (the placement rule in common/parallel.h).
class alignas(64) Rng {
 public:
  // Seeds the 256-bit state from `seed` via splitmix64.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Not copyable (accidental stream duplication is almost always a bug in
  // experiment code); use Split() to derive independent streams.
  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) = default;
  Rng& operator=(Rng&&) = default;

  // Next raw 64-bit output.
  uint64_t NextU64();

  // Uniform in [0, 1). 53-bit resolution.
  double NextDouble();

  // Uniform integer in [0, bound). Requires bound > 0. Unbiased
  // (Lemire's rejection method).
  uint64_t NextBounded(uint64_t bound);

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  // Standard normal via Marsaglia polar method.
  double NextGaussian();

  // Laplace(0, scale): density (1/2b)·exp(−|x|/b). Requires scale > 0.
  double NextLaplace(double scale);

  // Exponential with rate lambda (> 0).
  double NextExponential(double lambda);

  // Geometric: number of failures before first success, p in (0, 1].
  // Saturates at UINT64_MAX when the draw exceeds 2^64 (p below ~1e-19).
  uint64_t NextGeometric(double p);

  // Binomial(n, p): number of successes in n trials. Exact inversion by
  // geometric skipping (Batagelj–Brandes) when n·p is small — O(n·p + 1)
  // draws, skipping straight over failure runs — and the clamped normal
  // approximation once the variance n·p·(1−p) is large enough that the
  // discrepancy is far below sampling noise. p is clamped to [0, 1].
  // This is the workhorse of the edge-skipping SKG sampler, which splits
  // edge counts multinomially across Kronecker quadrants.
  uint64_t NextBinomial(uint64_t n, double p);

  // n Laplace draws in one call (AddLaplaceNoiseVector's noise):
  // out[i] receives exactly the value the i-th sequential NextLaplace
  // call would have produced, and the stream advances identically — the
  // contract that lets the batched caller stay byte-compatible with a
  // draw-at-a-time one (tests/simd_test.cc enforces it).
  void FillLaplace(double scale, double* out, size_t n);

  // Advances the stream exactly as n NextU64() calls would, in
  // O(popcount(n)) 256×256 GF(2) matrix-vector products (xoshiro's
  // state transition is linear over GF(2); the powers M^(2^i) are built
  // on first use and kept for the process). The Gaussian spare is
  // untouched. This is what lets a kernel run several stretches of one
  // stream side by side and still leave it where a sequential loop
  // would. Thread-safe.
  void Discard(uint64_t n);

  // A new Rng whose stream is independent of this one (and of further
  // outputs of this one), derived from the current state.
  Rng Split();

  // The complete generator state, for memoized replay of randomized
  // computations (StatCache): a cache entry stores the state the stream
  // reached when the computation was first run, and a cache hit restores
  // it so the caller's stream advances exactly as if the computation had
  // re-run. The exact SKG sampler uses the same pair to step the stream
  // on a local copy and write it back. Restoring a state anywhere else
  // duplicates a stream — the bug the deleted copy constructor exists to
  // prevent — so these are not for general use.
  struct State {
    uint64_t s[4];
    bool have_gaussian;
    double spare_gaussian;
  };
  State SaveState() const;
  void RestoreState(const State& state);

  // FNV-1a digest of the complete state — the RNG component of StatCache
  // keys. Two Rngs with equal fingerprints produce identical streams.
  uint64_t StateFingerprint() const;

  // Random permutation of {0, ..., n-1} (Fisher–Yates).
  std::vector<uint32_t> Permutation(uint32_t n);

 private:
  uint64_t state_[4];
  bool have_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace dpkron

#endif  // DPKRON_COMMON_RNG_H_
