// Kronecker-power machinery (Definitions 3.1–3.4).
//
// The k-th Kronecker power P = Θ^[k] of an N1×N1 initiator assigns every
// ordered node pair (u, v) of an N1^k-node graph the probability
//   P_uv = Π_t Θ[digit_t(u)][digit_t(v)],
// where digit_t(·) is the t-th base-N1 digit. For the 2×2 symmetric case
// the product collapses to a^n00 · b^(n01+n10) · c^n11 with the n's
// obtained from three popcounts — O(1) per pair after a pow table.

#ifndef DPKRON_SKG_KRONECKER_H_
#define DPKRON_SKG_KRONECKER_H_

#include <cstdint>
#include <vector>

#include "src/skg/initiator.h"

namespace dpkron {

// x^n by binary exponentiation (exact repeated multiplication; std::pow
// may differ in the last ulp across libms, and the moment formulas
// difference nearly-equal k-th powers).
double PowInt(double x, uint32_t n);

// Number of nodes N1^k. Aborts on overflow of uint64.
uint64_t KroneckerNodeCount(uint32_t initiator_dim, uint32_t k);

// P_uv for a general initiator; O(k·1) digit walk.
double EdgeProbabilityN(const InitiatorN& theta, uint32_t k, uint64_t u,
                        uint64_t v);

// Fast 2×2 evaluator with precomputed power tables.
class EdgeProbability2 {
 public:
  EdgeProbability2(const Initiator2& theta, uint32_t k);

  uint32_t k() const { return k_; }
  uint64_t num_nodes() const { return uint64_t{1} << k_; }

  // P_uv. Digit convention: bit 0 of a node id selects row/col of Θ at
  // level 0 (bit value 0 → 'a' corner).
  double operator()(uint64_t u, uint64_t v) const {
    const uint64_t both = u & v;          // digit pair (1,1) → c
    const uint64_t only_u = u & ~v;       // (1,0) → b
    const uint64_t only_v = ~u & v;       // (0,1) → b
    const uint32_t n11 = static_cast<uint32_t>(__builtin_popcountll(both));
    const uint32_t nb = static_cast<uint32_t>(__builtin_popcountll(only_u) +
                                              __builtin_popcountll(only_v));
    return ClassProbability(n11, nb);
  }

  // P_uv of every pair with n11 digit pairs (1,1) and nb mixed digit
  // pairs (n11 + nb ≤ k): a^(k−n11−nb) · b^nb · c^n11.
  double ClassProbability(uint32_t n11, uint32_t nb) const {
    return pow_a_[k_ - n11 - nb] * pow_b_[nb] * pow_c_[n11];
  }

 private:
  uint32_t k_;
  std::vector<double> pow_a_, pow_b_, pow_c_;
};

// Dense P = Θ^[k] for tiny k (testing / exact reference). Row-major
// N1^k × N1^k. Aborts if the matrix would exceed 2^26 entries.
std::vector<double> DenseKroneckerPower(const InitiatorN& theta, uint32_t k);

}  // namespace dpkron

#endif  // DPKRON_SKG_KRONECKER_H_
