#include "src/kronfit/kronfit.h"

#include <algorithm>
#include <cmath>

#include "src/common/macros.h"
#include "src/common/parallel.h"
#include "src/common/stat_cache.h"
#include "src/estimation/kronmom.h"
#include "src/graph/graph_builder.h"

namespace dpkron {

Graph PadWithIsolatedNodes(GraphView graph, uint32_t num_nodes) {
  DPKRON_CHECK_GE(num_nodes, graph.NumNodes());
  GraphBuilder builder(num_nodes);
  graph.ForEachEdge(
      [&builder](Graph::NodeId u, Graph::NodeId v) { builder.AddEdge(u, v); });
  return builder.Build();
}

namespace {

// The fixed schedule of the paper's KronFit baseline.
// Metropolis warm-up swaps before the first sample, as a multiple of N.
constexpr double kWarmupFactor = 10.0;
// Independent permutation chains averaged per gradient estimate (one
// Metropolis sample each per iteration).
constexpr uint32_t kNumChains = 4;
// Swaps between consecutive samples, as a multiple of N.
constexpr double kDecorrelationFactor = 2.0;
// Largest per-iteration movement of any parameter; the raw gradient is
// rescaled to respect it (the likelihood gradients are O(E/θ), so a raw
// step would leave the box immediately). Linear decay: the limit at
// iteration t is kMaxStep/(1 + t·kStepDecay).
constexpr double kMaxStep = 0.02;
constexpr double kStepDecay = 0.05;
// Average the iterates of the last kTailAverage iterations (Polyak tail
// averaging smooths the permutation-sampling noise).
constexpr uint32_t kTailAverage = 10;
// Starting initiator.
constexpr Initiator2 kInit{0.9, 0.6, 0.2};

// Runs `count` Metropolis swap steps on sigma under the current model.
// Serial: one chain is one Markov trajectory.
void RunSwaps(GraphView graph, const KronFitLikelihood& model,
              PermutationState* sigma, Rng& rng, uint64_t count) {
  // The AVX2 path runs the whole loop inside the AVX2 translation unit
  // (likelihood_kernels.h) — same trajectory as the scalar loop below,
  // swap for swap.
  if (model.MetropolisSwaps(graph, sigma, rng, count)) return;
  const uint32_t n = graph.NumNodes();
  for (uint64_t step = 0; step < count; ++step) {
    const uint32_t u = static_cast<uint32_t>(rng.NextBounded(n));
    const uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
    if (u == v) continue;
    const double delta = model.SwapDelta(graph, *sigma, u, v);
    if (delta >= 0.0 || rng.NextDouble() < std::exp(delta)) {
      sigma->SwapNodes(u, v);
    }
  }
}

}  // namespace

MetropolisChains::MetropolisChains(GraphView graph, uint32_t k,
                                   uint32_t num_chains, Rng& rng)
    : graph_(graph) {
  DPKRON_CHECK_GE(num_chains, 1u);
  DPKRON_CHECK_EQ(graph.NumNodes(), uint64_t{1} << k);
  rngs_ = SplitRngStreams(rng, num_chains);
  const PermutationState init = DegreeGuidedInit(graph, k);
  chains_.reserve(num_chains);
  for (uint32_t c = 0; c < num_chains; ++c) chains_.push_back(init);
  // Jitter every chain but the first with its own stream (n/4 random
  // transpositions): overdispersed starts decorrelate the bank without
  // costing chain 0 the degree-guided head start.
  ParallelFor(num_chains, 1, [&](size_t c) {
    if (c == 0) return;
    PerturbUniform(&chains_[c], graph.NumNodes() / 4, rngs_[c]);
  });
}

void MetropolisChains::Advance(const KronFitLikelihood& model,
                               uint64_t swaps_per_chain) {
  ParallelFor(chains_.size(), 1, [&](size_t c) {
    RunSwaps(graph_, model, &chains_[c], rngs_[c], swaps_per_chain);
  });
}

Gradient3 MetropolisChains::SampleGradient(const KronFitLikelihood& model,
                                           uint64_t swaps_per_chain) {
  // Advance and evaluate inside one parallel section. The nested
  // EdgeGradient is a chunk-ordered reduction, so it is bit-identical
  // whether idle workers help it or the chain's thread runs it alone.
  std::vector<Gradient3> grads(chains_.size());
  ParallelFor(chains_.size(), 1, [&](size_t c) {
    RunSwaps(graph_, model, &chains_[c], rngs_[c], swaps_per_chain);
    grads[c] = model.EdgeGradient(graph_, chains_[c]);
  });
  Gradient3 mean{0.0, 0.0, 0.0};
  for (const Gradient3& grad : grads) {
    for (int i = 0; i < 3; ++i) mean[i] += grad[i];
  }
  for (int i = 0; i < 3; ++i) mean[i] /= static_cast<double>(chains_.size());
  return mean;
}

double MetropolisChains::BestLogLikelihood(
    const KronFitLikelihood& model) const {
  std::vector<double> lls(chains_.size());
  ParallelFor(chains_.size(), 1, [&](size_t c) {
    lls[c] = model.LogLikelihood(graph_, chains_[c]);
  });
  double best = lls[0];
  for (double ll : lls) best = std::max(best, ll);
  return best;
}

KronFitResult FitKronFit(GraphView graph, Rng& rng,
                         const KronFitOptions& options) {
  DPKRON_CHECK_GE(graph.NumNodes(), 2u);
  const uint32_t k = ChooseKroneckerOrder(graph.NumNodes());
  const uint32_t n = uint32_t{1} << k;
  // Views don't own: when padding is needed, the padded Graph lives here
  // so the chain bank's view of it stays valid for the whole fit.
  Graph padded_storage;
  GraphView padded = graph;
  if (graph.NumNodes() != n) {
    padded_storage = PadWithIsolatedNodes(graph, n);
    padded = padded_storage;
  }

  Initiator2 theta = kInit.Clamped(0.005, 0.995);
  MetropolisChains chains(padded, k, kNumChains, rng);

  // Initial burn-in under the starting parameters.
  {
    const KronFitLikelihood model(theta, k);
    chains.Advance(model, static_cast<uint64_t>(kWarmupFactor * n));
  }

  double tail_a = 0.0, tail_b = 0.0, tail_c = 0.0;
  uint32_t tail_count = 0;
  const uint32_t tail_start =
      options.iterations > kTailAverage ? options.iterations - kTailAverage
                                        : 0;

  for (uint32_t it = 0; it < options.iterations; ++it) {
    const KronFitLikelihood model(theta, k);
    // Chain-averaged edge gradient, one decorrelated sample per chain.
    Gradient3 gradient = chains.SampleGradient(
        model, static_cast<uint64_t>(kDecorrelationFactor * n));
    const Gradient3 no_edge = model.NoEdgeGradient();
    for (int i = 0; i < 3; ++i) gradient[i] -= no_edge[i];

    // Ascent step, rescaled to the trust region.
    const double limit = kMaxStep / (1.0 + kStepDecay * it);
    const double magnitude = std::max(
        {std::fabs(gradient[0]), std::fabs(gradient[1]),
         std::fabs(gradient[2]), 1e-30});
    const double scale = std::min(limit / magnitude, 1e-4);
    theta = Initiator2{theta.a + scale * gradient[0],
                       theta.b + scale * gradient[1],
                       theta.c + scale * gradient[2]}
                .Clamped(0.005, 0.995);

    if (it >= tail_start) {
      tail_a += theta.a;
      tail_b += theta.b;
      tail_c += theta.c;
      ++tail_count;
    }
  }

  if (tail_count > 0) {
    theta = Initiator2{tail_a / tail_count, tail_b / tail_count,
                       tail_c / tail_count};
  }

  KronFitResult result;
  result.k = k;
  result.theta = theta.Canonical();
  const KronFitLikelihood final_model(result.theta, k);
  result.log_likelihood = chains.BestLogLikelihood(final_model);
  return result;
}

// Layout 1: (θ, log-likelihood, k). Unpinned: libm makes its bits vary.
const CacheDomain<KronFitResult> kKronFitDomain{
    "kronfit", 1,
    [](const KronFitResult& result, RecordBuilder& rec) {
      rec.Double(result.theta.a)
          .Double(result.theta.b)
          .Double(result.theta.c)
          .Double(result.log_likelihood)
          .U32(result.k);
    },
    [](RecordParser& rec) -> std::optional<KronFitResult> {
      KronFitResult result;
      result.theta.a = rec.Double();
      result.theta.b = rec.Double();
      result.theta.c = rec.Double();
      result.log_likelihood = rec.Double();
      result.k = rec.U32();
      if (!rec.ok()) return std::nullopt;
      return result;
    }};

KronFitResult FitKronFitCached(GraphView graph, Rng& rng,
                               const KronFitOptions& options) {
  return *StatCache::Instance().MemoizeDraws(
      kKronFitDomain,
      CacheKey().Mix(graph.ContentFingerprint()).Mix(options.iterations), rng,
      [&] { return FitKronFit(graph, rng, options); });
}

}  // namespace dpkron
