#include "src/kronfit/likelihood.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/common/macros.h"
#include "src/common/parallel.h"
#include "src/common/simd.h"
#include "src/kronfit/likelihood_kernels.h"

namespace dpkron {
namespace {

// Node-range grain for the per-edge reductions: coarse enough that a
// chunk amortizes the dispatch, fine enough to load-balance the skewed
// SKG degree distribution.
constexpr size_t kNodeGrain = 512;

}  // namespace

KronFitLikelihood::KronFitLikelihood(const Initiator2& theta, uint32_t k)
    : theta_(Initiator2{std::max(theta.a, kThetaFloor),
                        std::max(theta.b, kThetaFloor),
                        std::max(theta.c, kThetaFloor)}
                 .Clamped()),
      k_(k),
      mask_((k >= 32) ? 0xFFFFFFFFu : ((1u << k) - 1)),
      shift_(static_cast<uint32_t>(std::bit_width(k))),
      prob_(theta_, k) {
  DPKRON_CHECK_GE(k, 1u);
  // Tabulate the edge term and gradient factors over the digit-count
  // lattice. Powers are accumulated by the same repeated multiplication
  // EdgeProbability2 uses and the cell expressions match the *Direct
  // methods token for token, so every table value is bit-identical to
  // the direct computation.
  const double a = theta_.a, b = theta_.b, c = theta_.c;
  std::vector<double> pow_a(k + 1), pow_b(k + 1), pow_c(k + 1);
  pow_a[0] = pow_b[0] = pow_c[0] = 1.0;
  for (uint32_t i = 1; i <= k; ++i) {
    pow_a[i] = pow_a[i - 1] * a;
    pow_b[i] = pow_b[i - 1] * b;
    pow_c[i] = pow_c[i - 1] * c;
  }
  const size_t cells = size_t{k + 1} * (k + 1);
  edge_term_.assign(cells, 0.0);
  grad_a_.assign(cells, 0.0);
  grad_b_.assign(cells, 0.0);
  grad_c_.assign(cells, 0.0);
  for (uint32_t n11 = 0; n11 <= k; ++n11) {
    for (uint32_t nb = 0; nb + n11 <= k; ++nb) {
      const uint32_t n00 = k - n11 - nb;
      const double P = pow_a[n00] * pow_b[nb] * pow_c[n11];
      const size_t idx = size_t{n11} * (k + 1) + nb;
      edge_term_[idx] = std::log(P) + P + 0.5 * P * P;
      const double factor = 1.0 + P + P * P;
      grad_a_[idx] = n00 / a * factor;
      grad_b_[idx] = nb / b * factor;
      grad_c_[idx] = n11 / c * factor;
    }
  }
  // AVX2-path layout: the same values (copies, not recomputation — the
  // layout can never drift from the dense table) at power-of-two row
  // stride 2^shift_ (> k ≥ nb, so "(n11 << shift) | nb" is collision-
  // free).
  edge_term_padded_.assign((size_t{1} << shift_) * (k + 1), 0.0);
  for (uint32_t n11 = 0; n11 <= k; ++n11) {
    for (uint32_t nb = 0; nb + n11 <= k; ++nb) {
      edge_term_padded_[(size_t{n11} << shift_) | nb] =
          edge_term_[size_t{n11} * (k + 1) + nb];
    }
  }
}

std::array<uint32_t, 3> KronFitLikelihood::DigitCounts(uint32_t p,
                                                       uint32_t q) const {
  const uint32_t both = (p & q) & mask_;
  const uint32_t only = (p ^ q) & mask_;
  const uint32_t n11 = static_cast<uint32_t>(__builtin_popcount(both));
  const uint32_t nb = static_cast<uint32_t>(__builtin_popcount(only));
  return {k_ - n11 - nb, nb, n11};
}

double KronFitLikelihood::EdgeTermDirect(uint32_t p, uint32_t q) const {
  const double P = prob_(p, q);
  return std::log(P) + P + 0.5 * P * P;
}

Gradient3 KronFitLikelihood::EdgeGradientTermDirect(uint32_t p,
                                                    uint32_t q) const {
  const auto [n00, nb, n11] = DigitCounts(p, q);
  const double P = prob_(p, q);
  // d/dθ [log P + P + P²/2] = (n_θ/θ)(1 + P + P²).
  const double factor = 1.0 + P + P * P;
  return {n00 / theta_.a * factor, nb / theta_.b * factor,
          n11 / theta_.c * factor};
}

double KronFitLikelihood::NoEdgeTerm() const {
  const double a = theta_.a, b = theta_.b, c = theta_.c;
  const double first =
      0.5 * (PowInt(a + 2 * b + c, k_) - PowInt(a + c, k_));
  const double second = 0.25 * (PowInt(a * a + 2 * b * b + c * c, k_) -
                                PowInt(a * a + c * c, k_));
  return first + second;
}

Gradient3 KronFitLikelihood::NoEdgeGradient() const {
  const double a = theta_.a, b = theta_.b, c = theta_.c;
  const double s1 = PowInt(a + 2 * b + c, k_ - 1);
  const double t1 = PowInt(a + c, k_ - 1);
  const double s2 = PowInt(a * a + 2 * b * b + c * c, k_ - 1);
  const double t2 = PowInt(a * a + c * c, k_ - 1);
  const double kk = static_cast<double>(k_);
  Gradient3 grad;
  grad[0] = 0.5 * kk * (s1 - t1) + 0.5 * kk * a * (s2 - t2);
  grad[1] = kk * s1 + kk * b * s2;
  grad[2] = 0.5 * kk * (s1 - t1) + 0.5 * kk * c * (s2 - t2);
  return grad;
}

double KronFitLikelihood::LogLikelihood(GraphView graph,
                                        const PermutationState& sigma) const {
  const double edge_sum = ParallelSum(
      graph.NumNodes(), kNodeGrain, [&](size_t begin, size_t end) {
        double sum = 0.0;
        for (size_t u = begin; u < end; ++u) {
          const uint32_t pu = sigma.Position(static_cast<uint32_t>(u));
          for (Graph::NodeId v : graph.Neighbors(static_cast<uint32_t>(u))) {
            if (v > u) sum += EdgeTerm(pu, sigma.Position(v));
          }
        }
        return sum;
      });
  return edge_sum - NoEdgeTerm();
}

double KronFitLikelihood::SwapDelta(GraphView graph,
                                    const PermutationState& sigma, uint32_t u,
                                    uint32_t v) const {
  if (u == v) return 0.0;
  const uint32_t pu = sigma.Position(u), pv = sigma.Position(v);
  double delta = 0.0;
  // Edges incident to u (skip the shared edge {u,v}: handled once below).
  for (Graph::NodeId w : graph.Neighbors(u)) {
    if (w == v) continue;
    const uint32_t pw = sigma.Position(w);
    delta += EdgeTerm(pv, pw) - EdgeTerm(pu, pw);
  }
  for (Graph::NodeId w : graph.Neighbors(v)) {
    if (w == u) continue;
    const uint32_t pw = sigma.Position(w);
    delta += EdgeTerm(pu, pw) - EdgeTerm(pv, pw);
  }
  // The edge {u, v} itself keeps its unordered position pair — P is
  // symmetric, so its term is unchanged.
  return delta;
}

bool KronFitLikelihood::MetropolisSwaps(GraphView graph,
                                        PermutationState* sigma, Rng& rng,
                                        uint64_t count) const {
  if (!Avx2Active()) return false;
  MetropolisSwapsAvx2(graph.Offsets().data(), graph.Adjacency().data(),
                      graph.NumNodes(), sigma, rng, count, mask_, shift_,
                      edge_term_padded_.data());
  return true;
}

Gradient3 KronFitLikelihood::EdgeGradient(GraphView graph,
                                          const PermutationState& sigma) const {
  return ParallelSumArray<3>(
      graph.NumNodes(), kNodeGrain, [&](size_t begin, size_t end) {
        Gradient3 grad{0.0, 0.0, 0.0};
        for (size_t u = begin; u < end; ++u) {
          const uint32_t pu = sigma.Position(static_cast<uint32_t>(u));
          for (Graph::NodeId v : graph.Neighbors(static_cast<uint32_t>(u))) {
            if (v <= u) continue;
            const size_t idx = TableIndex(pu, sigma.Position(v));
            grad[0] += grad_a_[idx];
            grad[1] += grad_b_[idx];
            grad[2] += grad_c_[idx];
          }
        }
        return grad;
      });
}

}  // namespace dpkron
