// Sampling realizations G = R(P) of a stochastic Kronecker graph (§3.2).
//
// Undirected convention (matching the paper's symmetrize-and-drop-loops
// transformation and the Gleich–Owen moment formulas): every unordered
// pair {u, v}, u ≠ v, receives one Bernoulli coin with bias P_uv.
//
// Four samplers:
//   * Exact: flips all N(N−1)/2 coins. O(4^k) time, exact distribution.
//     Practical through k = 14 (~1.3·10^8 coin flips, ~0.15 s): integer
//     thresholds per probability class, a per-row bound that skips the
//     class lookup for most draws, and — under AVX2, when every pair
//     takes a draw — four jumped-ahead stream positions stepped together.
//     Same draws and same graph as one NextBernoulli per pair; runs on
//     the calling thread, never on the pool.
//   * BallDrop: the standard fast Kronecker generator (krongen-style
//     recursive quadrant descent). Samples a target edge count from the
//     normal approximation of the Poisson-binomial edge-count law, then
//     places that many distinct edges with probability ∝ P_uv. O(E·k)
//     expected time; the per-pair law is approximate but the aggregate
//     statistics match the exact sampler closely (tested).
//   * ClassSkip: probability-class grass-hopping (class_sampler.h):
//     exact distribution in O(E) expected time, single-threaded.
//   * EdgeSkip: same target-count law as BallDrop, but the balls are
//     split multinomially across Kronecker quadrants level by level,
//     skipping every zero-count / zero-probability region outright and
//     drawing the splits with geometric-skipping binomials
//     (Rng::NextBinomial). Regions are independent once split, so the
//     descent runs on the thread pool with per-region RNG streams and
//     per-region edge batches merged into one CSR. O(E·k) time; the
//     sampler of choice for large k (a k = 20, ~10^6-node, ~10^7-edge
//     realization takes seconds). Output is deterministic for a given
//     seed regardless of thread count.

#ifndef DPKRON_SKG_SAMPLER_H_
#define DPKRON_SKG_SAMPLER_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/graph/graph.h"
#include "src/skg/initiator.h"

namespace dpkron {

enum class SkgSampleMethod {
  // All-pairs Bernoulli sweep: exact distribution, O(4^k).
  kExact,
  // krongen-style recursive quadrant descent: fast, approximate. Gives
  // up on duplicate-avoidance after 30 × target placements (dense
  // corners can make distinct placements scarce).
  kBallDrop,
  // Probability-class skipping (class_sampler.h): exact distribution in
  // O(E) expected time — the best default for k > 12.
  kClassSkip,
  // Multinomial quadrant splitting with geometric edge skipping:
  // BallDrop's distribution at O(E·k) cost, parallel across regions —
  // the generator for k ≥ 16 / million-node realizations.
  kEdgeSkip,
};

struct SkgSampleOptions {
  SkgSampleMethod method = SkgSampleMethod::kExact;
};

// One realization of the SKG defined by Θ^[k] on 2^k nodes.
Graph SampleSkg(const Initiator2& theta, uint32_t k, Rng& rng,
                const SkgSampleOptions& options = {});

// Exact sampler for a general (possibly asymmetric) N1×N1 initiator: the
// directed stochastic matrix is realized and then symmetrized per §3.2
// (loops dropped, lower triangle kept). Limited to small N1^k.
Graph SampleSkgN(const InitiatorN& theta, uint32_t k, Rng& rng);

}  // namespace dpkron

#endif  // DPKRON_SKG_SAMPLER_H_
