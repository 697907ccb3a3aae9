// Parity suite for the SIMD dispatch layer: every vectorized kernel must
// be bit-identical to its scalar reference at every dispatch level and
// thread count (the determinism contract that keeps scenario/sweep/
// ledger outputs frozen across heterogeneous hardware). Kernels with a
// single scalar body are also checked against an independent in-test
// computation, since a level sweep there compares one path with itself.
// All comparisons are exact (EXPECT_EQ on doubles), never approximate.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/dp/laplace_mechanism.h"
#include "src/graph/anf.h"
#include "src/graph/graph_builder.h"
#include "src/graph/intersect_kernels.h"
#include "src/graph/node_stats.h"
#include "src/kronfit/kronfit.h"
#include "src/kronfit/likelihood.h"
#include "src/kronfit/permutation.h"
#include "src/linalg/spmv.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::CommonNeighbors;
using testing::PerNodeTrianglesByCommonNeighbors;
using testing::ScopedThreads;

// Levels to sweep: forced scalar always, plus AVX2 when this machine can
// actually run it. (On a non-AVX2 machine the sweep degenerates to the
// scalar level — the parity assertions then hold trivially, and CI's
// AVX2 runners provide the real coverage.)
std::vector<SimdLevel> TestableLevels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (DetectedSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

Graph SkewedFixture() {
  // Hub-plus-cliques: node 0 sees every other node (degree n−1), the
  // rest sit in 8-cliques — degree ratio far past the galloping
  // threshold, so both intersection strategies are exercised.
  const uint32_t n = 512;
  GraphBuilder builder(n);
  for (uint32_t v = 1; v < n; ++v) builder.AddEdge(0, v);
  for (uint32_t base = 1; base + 8 <= n; base += 8) {
    for (uint32_t i = 0; i < 8; ++i) {
      for (uint32_t j = i + 1; j < 8; ++j) {
        builder.AddEdge(base + i, base + j);
      }
    }
  }
  return builder.Build();
}

TEST(SimdDispatchTest, LevelNamesAndCapRoundTrip) {
  // Exactly two levels: the value past kAvx2 has no name.
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_EQ(static_cast<int>(SimdLevel::kAvx2), 1);
  EXPECT_STREQ(SimdLevelName(static_cast<SimdLevel>(2)), "unknown");
  EXPECT_GE(DetectedSimdLevel(), SimdLevel::kScalar);
  const SimdLevel ambient = SimdLevelCap();
  {
    ScopedSimdLevelCap cap(SimdLevel::kScalar);
    EXPECT_EQ(SimdLevelCap(), SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  }
  EXPECT_EQ(SimdLevelCap(), ambient);
  // Active never exceeds either bound.
  EXPECT_LE(ActiveSimdLevel(), DetectedSimdLevel());
  EXPECT_LE(ActiveSimdLevel(), SimdLevelCap());
}

// Σ over edges u < v of EdgeGradientTermDirect, in the scalar edge
// order (u ascending, then its row). At k ≤ 9 the graph is one 512-node
// chunk, so this is exactly the value EdgeGradient must return.
Gradient3 SequentialEdgeGradient(const KronFitLikelihood& model,
                                 const Graph& g,
                                 const PermutationState& sigma) {
  Gradient3 grad{0.0, 0.0, 0.0};
  for (Graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    for (Graph::NodeId v : g.Neighbors(u)) {
      if (v <= u) continue;
      const Gradient3 term =
          model.EdgeGradientTermDirect(sigma.Position(u), sigma.Position(v));
      for (int i = 0; i < 3; ++i) grad[i] += term[i];
    }
  }
  return grad;
}

TEST(SimdParityTest, LogLikelihoodAndGradientBitIdentical) {
  for (const uint32_t k : {6u, 10u}) {
    Rng graph_rng(200 + k);
    const Graph g = SampleSkg({0.99, 0.55, 0.35}, k, graph_rng);
    const KronFitLikelihood model({0.9, 0.6, 0.2}, k);
    PermutationState sigma = DegreeGuidedInit(g, k);
    Rng perturb_rng(8);
    PerturbUniform(&sigma, g.NumNodes() / 2, perturb_rng);
    std::optional<double> ll_ref;
    std::optional<Gradient3> grad_ref;
    for (SimdLevel level : TestableLevels()) {
      ScopedSimdLevelCap cap(level);
      for (const int threads : {1, 2, 8}) {
        ScopedThreads scoped(threads);
        const double ll = model.LogLikelihood(g, sigma);
        const Gradient3 grad = model.EdgeGradient(g, sigma);
        if (!ll_ref) {
          ll_ref = ll;
          grad_ref = grad;
          if (k == 6) {
            EXPECT_EQ(grad, SequentialEdgeGradient(model, g, sigma));
          }
          continue;
        }
        EXPECT_EQ(*ll_ref, ll) << "k=" << k << " level="
                               << SimdLevelName(level) << " threads="
                               << threads;
        EXPECT_EQ(*grad_ref, grad) << "k=" << k << " level="
                                   << SimdLevelName(level) << " threads="
                                   << threads;
      }
    }
  }
}

TEST(SimdParityTest, TriangleKernelsExactAcrossLevelsAndThreads) {
  Rng graph_rng(33);
  const std::vector<Graph> graphs = {
      SampleSkg({0.99, 0.55, 0.35}, 10, graph_rng), SkewedFixture()};
  for (const Graph& g : graphs) {
    std::optional<std::vector<uint64_t>> per_node_ref;
    for (SimdLevel level : TestableLevels()) {
      ScopedSimdLevelCap cap(level);
      for (const int threads : {1, 2, 8}) {
        ScopedThreads scoped(threads);
        const std::vector<uint64_t> per_node = ComputeNodeStats(g).triangles;
        if (!per_node_ref) {
          per_node_ref = per_node;
          continue;
        }
        EXPECT_EQ(*per_node_ref, per_node);
      }
    }
    // Cross-check the per-node counts against the common-neighbor
    // oracle, whose scalar merge shares no code with the triangle
    // kernels.
    EXPECT_EQ(*per_node_ref, PerNodeTrianglesByCommonNeighbors(g));
    // The AVX2 intersection on whole adjacency rows (hub against clique
    // rows takes the galloping path) against the same oracle.
    if (DetectedSimdLevel() >= SimdLevel::kAvx2) {
      Rng pair_rng(5);
      std::vector<uint32_t> out(g.NumNodes());
      for (int trial = 0; trial < 100; ++trial) {
        const auto u =
            static_cast<uint32_t>(pair_rng.NextBounded(g.NumNodes()));
        const auto v =
            static_cast<uint32_t>(pair_rng.NextBounded(g.NumNodes()));
        const auto nu = g.Neighbors(u);
        const auto nv = g.Neighbors(v);
        EXPECT_EQ(IntersectAvx2(nu.data(), nu.size(), nv.data(), nv.size(),
                                out.data()),
                  CommonNeighbors(g, u, v))
            << "u=" << u << " v=" << v;
      }
    }
  }
}

// Direct kernel test over every tail-remainder shape: list lengths
// 0..17 on both sides (past 2× the 8-lane block width), against a
// scalar merge computed in-test.
TEST(SimdParityTest, IntersectionTailRemainders) {
  if (DetectedSimdLevel() < SimdLevel::kAvx2) {
    GTEST_SKIP() << "AVX2 unavailable; kernel cannot run on this CPU";
  }
  Rng rng(77);
  auto random_sorted = [&rng](size_t len) {
    std::vector<uint32_t> values;
    uint32_t next = 0;
    for (size_t i = 0; i < len; ++i) {
      next += 1 + static_cast<uint32_t>(rng.NextBounded(4));
      values.push_back(next);
    }
    return values;
  };
  for (size_t na = 0; na <= 17; ++na) {
    for (size_t nb = 0; nb <= 17; ++nb) {
      for (int rep = 0; rep < 4; ++rep) {
        const std::vector<uint32_t> a = random_sorted(na);
        const std::vector<uint32_t> b = random_sorted(nb);
        std::vector<uint32_t> expected;
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                              std::back_inserter(expected));
        std::vector<uint32_t> out(std::min(na, nb));
        const size_t matches =
            IntersectAvx2(a.data(), na, b.data(), nb, out.data());
        EXPECT_EQ(matches, expected.size()) << "na=" << na << " nb=" << nb;
        out.resize(matches);
        EXPECT_EQ(out, expected) << "na=" << na << " nb=" << nb;
      }
    }
  }
  // Galloping path: 8 needles in a 4096-element haystack.
  const std::vector<uint32_t> haystack = random_sorted(4096);
  Rng pick(9);
  for (int rep = 0; rep < 8; ++rep) {
    std::vector<uint32_t> needles;
    for (int i = 0; i < 8; ++i) {
      needles.push_back(haystack[pick.NextBounded(haystack.size())]);
    }
    std::sort(needles.begin(), needles.end());
    needles.erase(std::unique(needles.begin(), needles.end()),
                  needles.end());
    std::vector<uint32_t> out(needles.size());
    const size_t matches =
        IntersectAvx2(needles.data(), needles.size(), haystack.data(),
                      haystack.size(), out.data());
    EXPECT_EQ(matches, needles.size());
    out.resize(matches);
    EXPECT_EQ(out, needles);
  }
}

TEST(SimdParityTest, FillLaplaceMatchesSequentialDraws) {
  Rng batched(123), sequential(123);
  std::vector<double> block(257);
  batched.FillLaplace(0.75, block.data(), block.size());
  for (const double value : block) {
    EXPECT_EQ(value, sequential.NextLaplace(0.75));
  }
  EXPECT_EQ(batched.StateFingerprint(), sequential.StateFingerprint());
}

TEST(SimdParityTest, FillBinomialMatchesSequentialDraws) {
  Rng batched(321), sequential(321);
  std::vector<uint64_t> block(129);
  batched.FillBinomial(1000, 0.3, block.data(), block.size());
  for (const uint64_t value : block) {
    EXPECT_EQ(value, sequential.NextBinomial(1000, 0.3));
  }
  EXPECT_EQ(batched.StateFingerprint(), sequential.StateFingerprint());
}

// The vector mechanism must stay byte-compatible with the pre-batch
// draw-and-add-per-element loop AND across dispatch levels, including
// every tail size 0..8 (2× the 4-lane double width).
TEST(SimdParityTest, LaplaceNoiseVectorBitIdentical) {
  std::vector<size_t> sizes{0, 1, 2, 3, 4, 5, 6, 7, 8, 1000};
  for (const size_t size : sizes) {
    std::vector<double> values(size);
    Rng value_rng(size + 1);
    for (double& v : values) v = value_rng.NextGaussian() * 10.0;
    // Pre-batch reference: the old element-at-a-time loop.
    std::vector<double> expected(size);
    Rng reference_rng(99);
    for (size_t i = 0; i < size; ++i) {
      expected[i] = values[i] + reference_rng.NextLaplace(2.0 / 0.5);
    }
    for (SimdLevel level : TestableLevels()) {
      ScopedSimdLevelCap cap(level);
      Rng rng(99);
      const auto noisy = AddLaplaceNoiseVector(values, 2.0, 0.5, rng);
      ASSERT_TRUE(noisy.ok());
      EXPECT_EQ(noisy.value(), expected)
          << "size=" << size << " level=" << SimdLevelName(level);
      EXPECT_EQ(rng.StateFingerprint(), reference_rng.StateFingerprint());
    }
  }
}

// Dot's defining value: one partial per 8192-element chunk, partials
// added left to right. Both the inline and the pool path must give it.
double ChunkOrderedDot(const std::vector<double>& x,
                       const std::vector<double>& y) {
  double total = 0.0;
  for (size_t begin = 0; begin < x.size(); begin += 8192) {
    double partial = 0.0;
    for (size_t i = begin; i < std::min(x.size(), begin + 8192); ++i) {
      partial += x[i] * y[i];
    }
    total += partial;
  }
  return total;
}

TEST(SimdParityTest, AxpyScaleDotBitIdentical) {
  // 3*8192+5 runs several chunks inline on the caller; 2*8192+1,
  // 4*8192+1 and 5*8192+7 end a 4-chunk group with a short chunk; the
  // last two sizes straddle the threshold where the helpers switch to
  // the pool.
  for (const size_t size :
       {size_t{0}, size_t{1}, size_t{5}, size_t{7}, size_t{8},
        size_t{2 * 8192 + 1}, size_t{3 * 8192 + 5}, size_t{4 * 8192 + 1},
        size_t{5 * 8192 + 7}, kMinParallelVector - 1, kMinParallelVector,
        size_t{100000}}) {
    std::vector<double> x(size), y0(size);
    Rng rng(size + 3);
    for (size_t i = 0; i < size; ++i) {
      x[i] = rng.NextGaussian();
      y0[i] = rng.NextGaussian();
    }
    // Element-wise references: one rounding per element.
    std::vector<double> axpy_expected = y0, scale_expected = y0;
    for (size_t i = 0; i < size; ++i) {
      axpy_expected[i] += 0.37 * x[i];
      scale_expected[i] *= -1.25;
    }
    std::optional<std::vector<double>> axpy_ref, scale_ref;
    std::optional<double> dot_ref;
    for (SimdLevel level : TestableLevels()) {
      ScopedSimdLevelCap cap(level);
      for (const int threads : {1, 2, 8}) {
        ScopedThreads scoped(threads);
        std::vector<double> y = y0;
        Axpy(0.37, x, &y);
        std::vector<double> s = y0;
        Scale(-1.25, &s);
        const double dot = Dot(x, y0);
        if (!axpy_ref) {
          axpy_ref = y;
          scale_ref = s;
          dot_ref = dot;
          EXPECT_EQ(y, axpy_expected) << "size=" << size;
          EXPECT_EQ(s, scale_expected) << "size=" << size;
          EXPECT_EQ(dot, ChunkOrderedDot(x, y0)) << "size=" << size;
          continue;
        }
        EXPECT_EQ(*axpy_ref, y);
        EXPECT_EQ(*scale_ref, s);
        EXPECT_EQ(*dot_ref, dot);
      }
    }
  }
}

// The reorthogonalization loop Lanczos ran before the fused pass, with
// Dot's defining value: the oracle OrthogonalizeAgainst must equal.
void OracleOrthogonalize(const std::vector<std::vector<double>>& basis,
                         std::vector<double>* w) {
  for (const auto& q : basis) Axpy(-ChunkOrderedDot(q, *w), q, w);
}

TEST(SimdParityTest, OrthogonalizeAgainstMatchesDotAxpyLoop) {
  // Sizes: one chunk and its edges, groups of 2–4 chunks with and
  // without a short last chunk, a 5th chunk opening a second group, and
  // both sides of kMinParallelVector (inline vs one pool section per
  // basis vector).
  for (const size_t size :
       {size_t{1}, size_t{8191}, size_t{8192}, size_t{8193},
        size_t{2 * 8192}, size_t{3 * 8192 + 5}, size_t{4 * 8192},
        size_t{4 * 8192 + 1}, size_t{5 * 8192 + 7}, kMinParallelVector - 1,
        kMinParallelVector, kMinParallelVector + 1, size_t{100000}}) {
    Rng rng(size + 11);
    const double scale = 1.0 / std::sqrt(static_cast<double>(size));
    std::vector<std::vector<double>> basis(5, std::vector<double>(size));
    for (auto& q : basis) {
      for (double& value : q) value = rng.NextGaussian() * scale;
    }
    std::vector<double> w0(size);
    for (double& value : w0) value = rng.NextGaussian();
    for (const size_t basis_size : {0, 1, 2, 5}) {
      const std::vector<std::vector<double>> prefix(
          basis.begin(), basis.begin() + basis_size);
      std::vector<double> expected = w0;
      OracleOrthogonalize(prefix, &expected);
      for (SimdLevel level : TestableLevels()) {
        ScopedSimdLevelCap cap(level);
        for (const int threads : {1, 2, 8}) {
          ScopedThreads scoped(threads);
          std::vector<double> w = w0;
          OrthogonalizeAgainst(prefix, &w);
          EXPECT_EQ(expected, w)
              << "size=" << size << " basis=" << basis_size
              << " level=" << SimdLevelName(level) << " threads=" << threads;
        }
      }
    }
  }
}

TEST(SimdParityTest, AnfHopPlotBitIdentical) {
  Rng graph_rng(44);
  const Graph g = SampleSkg({0.99, 0.55, 0.35}, 9, graph_rng);
  std::optional<std::vector<uint64_t>> reference;
  for (SimdLevel level : TestableLevels()) {
    ScopedSimdLevelCap cap(level);
    for (const int threads : {1, 2, 8}) {
      ScopedThreads scoped(threads);
      Rng rng(10);
      const std::vector<uint64_t> hop_plot = ApproxHopPlot(g, rng);
      if (!reference) {
        reference = hop_plot;
        continue;
      }
      EXPECT_EQ(*reference, hop_plot)
          << "level=" << SimdLevelName(level) << " threads=" << threads;
    }
  }
}

// End-to-end trajectory parity: the Metropolis loop (fast accept path
// with the exp shortcut) plus SwapDelta plus EdgeGradient, over several
// gradient iterations — if any dispatch-level divergence slipped through
// the unit parity tests, trajectories would split here.
TEST(SimdParityTest, MetropolisTrajectoryBitIdentical) {
  const uint32_t k = 8;
  Rng graph_rng(55);
  const Graph g = SampleSkg({0.99, 0.55, 0.35}, k, graph_rng);
  std::optional<std::vector<Gradient3>> reference;
  std::optional<double> ll_ref;
  for (SimdLevel level : TestableLevels()) {
    ScopedSimdLevelCap cap(level);
    for (const int threads : {1, 2, 8}) {
      ScopedThreads scoped(threads);
      Rng rng(13);
      MetropolisChains chains(g, k, /*num_chains=*/3, rng);
      const KronFitLikelihood model({0.9, 0.6, 0.2}, k);
      std::vector<Gradient3> trajectory;
      for (int it = 0; it < 3; ++it) {
        trajectory.push_back(
            chains.SampleGradient(model, 2 * uint64_t{g.NumNodes()}));
      }
      const double ll = chains.BestLogLikelihood(model);
      if (!reference) {
        reference = trajectory;
        ll_ref = ll;
        continue;
      }
      EXPECT_EQ(*reference, trajectory)
          << "level=" << SimdLevelName(level) << " threads=" << threads;
      EXPECT_EQ(*ll_ref, ll);
    }
  }
}

TEST(SimdAlignmentTest, CsrArenasAreCacheLineAligned) {
  static_assert(Graph::OffsetVector::allocator_type::alignment == 64);
  static_assert(Graph::AdjacencyVector::allocator_type::alignment == 64);
  Rng rng(66);
  const Graph sampled = SampleSkg({0.99, 0.55, 0.35}, 8, rng);
  const Graph built = GraphBuilder::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  for (const Graph* g : {&sampled, &built}) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(g->Offsets().data()) % 64, 0u);
    ASSERT_FALSE(g->Adjacency().empty());
    EXPECT_EQ(reinterpret_cast<uintptr_t>(g->Adjacency().data()) % 64, 0u);
  }
}

}  // namespace
}  // namespace dpkron
