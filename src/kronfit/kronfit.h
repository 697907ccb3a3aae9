// KronFit: approximate maximum-likelihood estimation of the SKG initiator
// (Leskovec & Faloutsos, ICML'07) — the paper's "KronFit" baseline.
//
// Stochastic gradient ascent on the Taylor-approximated log-likelihood,
// with the node-to-position alignment σ marginalized by Metropolis swap
// chains (permutation sampling). The observed graph is padded with
// isolated nodes to 2^k, as in the original implementation.
//
// Parallel architecture: instead of one chain sampled four times
// back-to-back, the sampler keeps four *independent* chains — each with
// its own PermutationState and Rng::Split stream — and fans them across
// the thread pool, averaging their edge gradients in chain-index order.
// Total swap work per iteration is unchanged; wall-clock divides by
// min(chains, threads), and the chain-indexed RNG streams plus
// chunk-ordered reductions make FitKronFit bit-identical for any thread
// count (tests/parallel_test.cc enforces 1 vs 2 vs 8).

#ifndef DPKRON_KRONFIT_KRONFIT_H_
#define DPKRON_KRONFIT_KRONFIT_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/graph/graph_view.h"
#include "src/kronfit/likelihood.h"
#include "src/kronfit/permutation.h"
#include "src/skg/initiator.h"

namespace dpkron {

struct KronFitOptions {
  // Gradient-ascent iterations.
  uint32_t iterations = 60;
};

struct KronFitResult {
  Initiator2 theta;              // canonical (a ≥ c)
  double log_likelihood = 0.0;   // approx. ll of the final theta
  uint32_t k = 0;
};

// Bank of independent Metropolis permutation chains over one padded
// graph. Chain c starts from the degree-guided init perturbed by its own
// Split stream (chain 0 starts unperturbed) and is advanced only by that
// stream, so the trajectory of every chain — and therefore every result
// below — is a function of (graph, seed, num_chains) alone, never of the
// thread count. Exposed publicly so benchmarks can time one gradient
// iteration in isolation.
class MetropolisChains {
 public:
  // `graph` must already be padded to 2^k nodes.
  MetropolisChains(GraphView graph, uint32_t k, uint32_t num_chains,
                   Rng& rng);

  uint32_t num_chains() const {
    return static_cast<uint32_t>(chains_.size());
  }
  const PermutationState& chain(uint32_t c) const { return chains_[c]; }

  // Advances every chain by `swaps_per_chain` Metropolis steps under
  // `model` (chains fan across the pool; each chain is serial).
  void Advance(const KronFitLikelihood& model, uint64_t swaps_per_chain);

  // One gradient iteration: advances every chain by `swaps_per_chain`
  // steps, then returns the mean of the per-chain edge gradients
  // (summed in chain-index order).
  Gradient3 SampleGradient(const KronFitLikelihood& model,
                           uint64_t swaps_per_chain);

  // Highest LogLikelihood across chains under `model` (ties resolve to
  // the lowest chain index).
  double BestLogLikelihood(const KronFitLikelihood& model) const;

 private:
  GraphView graph_;  // non-owning; the padded graph outlives the bank
  std::vector<PermutationState> chains_;
  std::vector<Rng> rngs_;  // stream c drives chain c, whatever the worker
};

// Fits Θ to `graph`. The graph is padded to 2^k nodes internally with
// k = ChooseKroneckerOrder(NumNodes()).
KronFitResult FitKronFit(GraphView graph, Rng& rng,
                         const KronFitOptions& options = {});

// FitKronFit served through the process-wide StatCache when it is
// enabled, keyed by (graph fingerprint, rng state fingerprint, iterations)
// — the inputs the fit is a pure function of. On a hit `rng` is
// restored to the state the original fit left it in, so downstream
// draws are identical whether the fit ran or was served; a sweep that
// varies only ε therefore pays for each (graph, seed) fit exactly once.
// With the cache disabled this is exactly FitKronFit.
KronFitResult FitKronFitCached(GraphView graph, Rng& rng,
                               const KronFitOptions& options = {});

// `graph` with isolated nodes appended until NumNodes() == num_nodes.
// Requires num_nodes >= graph.NumNodes().
Graph PadWithIsolatedNodes(GraphView graph, uint32_t num_nodes);

}  // namespace dpkron

#endif  // DPKRON_KRONFIT_KRONFIT_H_
