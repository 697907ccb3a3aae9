// Release-mode performance gates for the dispatched SIMD kernels: the
// AVX2 paths must actually beat (or, where the scalar loop is already at
// the hardware floor, at least never lose to) the forced-scalar
// fallback. All comparisons are in-process and interleaved — scalar and
// AVX2 reps alternate and each side keeps its minimum — because
// cross-run wall-clock on shared CI machines swings ±10–20% while
// interleaved min-of-reps ratios stay stable.
//
// Gates (speedup = scalar_time / avx2_time):
//   - triangle counting ≥ 2.0× (the per-node intersection kernel alone,
//     on one prebuilt forward orientation; measured 1.9–2.4× on a shared
//     4-core Xeon, so the gate fails some runs there);
//   - Metropolis swap chain ≥ 0.9× (i.e. no regression). The swap loop
//     is latency-bound on random position/table loads that out-of-order
//     execution already overlaps — a long line of vectorized variants
//     measured at or below the plain fused loop — so its AVX2 win is
//     the per-swap abstraction cost and the exp-free accept test
//     (~1.1×), below the 2× the triangle kernel clears. The gate holds
//     that the AVX2 path must never be slower than dispatch fallback.
//
// An AVX2 twin that stops beating its scalar loop is deleted, not gated.
//
// The tests skip themselves outside their operating envelope: debug
// builds (timings meaningless under -O0/assertions), non-AVX2 CPUs
// (nothing to compare), and runs where the cap is already below AVX2
// (DPKRON_FORCE_SCALAR — re-raising the cap would defeat the point of
// that job).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/graph/graph.h"
#include "src/graph/triangles.h"
#include "src/kronfit/kronfit.h"
#include "src/kronfit/likelihood.h"
#include "src/kronfit/permutation.h"
#include "src/skg/sampler.h"

namespace dpkron {
namespace {

bool ReleaseBuild() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

// One GTEST_SKIP site per test (GTEST_SKIP must run in the TEST body).
// Single-core hosts are excluded: with everything (including the harness
// itself) timesliced onto one CPU, the interleaved measurement cannot
// resolve the few-percent margins these gates assert. CI runners and any
// real perf box have >= 2 cores and still gate.
#define DPKRON_REQUIRE_PERF_ENV()                                         \
  do {                                                                    \
    if (!ReleaseBuild()) GTEST_SKIP() << "perf gate needs a Release build"; \
    if (DetectedSimdLevel() < SimdLevel::kAvx2)                           \
      GTEST_SKIP() << "CPU/toolchain has no AVX2 path to gate";           \
    if (SimdLevelCap() < SimdLevel::kAvx2)                                \
      GTEST_SKIP() << "cap below AVX2 (DPKRON_FORCE_SCALAR run)";         \
    if (std::thread::hardware_concurrency() < 2)                          \
      GTEST_SKIP() << "single-core host: timing too noisy to gate";       \
  } while (false)

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Alternates scalar-capped and uncapped reps, returning
// min(scalar) / min(avx2). Both callables must do identical work (the
// bit-identity contract guarantees the kernels themselves do).
template <typename ScalarFn, typename SimdFn>
double InterleavedSpeedup(int reps, ScalarFn&& scalar_fn, SimdFn&& simd_fn) {
  double scalar_min = std::numeric_limits<double>::infinity();
  double simd_min = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    {
      ScopedSimdLevelCap cap(SimdLevel::kScalar);
      scalar_min = std::min(scalar_min, TimeSeconds(scalar_fn));
    }
    simd_min = std::min(simd_min, TimeSeconds(simd_fn));
  }
  return scalar_min / simd_min;
}

Graph PerfGraph(uint32_t k) {
  Rng rng(12);
  return SampleSkg({0.99, 0.55, 0.35}, k, rng);
}

TEST(SimdPerfGate, TriangleCountingAtLeast2x) {
  DPKRON_REQUIRE_PERF_ENV();
  const Graph g = PerfGraph(12);
  // The forward orientation is built once, outside the timing: it and
  // the degree sums run the same scalar code on both sides, so timing
  // the whole node-stats pass would dilute the kernel's ratio.
  std::vector<uint32_t> degrees;
  const internal::ForwardCsr fwd = internal::BuildForwardCsrFused(g, &degrees);
  std::vector<uint64_t> scalar_triangles, simd_triangles;
  const double speedup = InterleavedSpeedup(
      5,
      [&] {
        scalar_triangles =
            internal::PerNodeTrianglesFromForward(fwd, g.NumNodes());
      },
      [&] {
        simd_triangles =
            internal::PerNodeTrianglesFromForward(fwd, g.NumNodes());
      });
  EXPECT_EQ(scalar_triangles, simd_triangles);
  EXPECT_GE(speedup, 2.0) << "triangle kernel under-performing: "
                          << speedup << "x vs forced scalar";
}

TEST(SimdPerfGate, MetropolisSwapsNoRegression) {
  DPKRON_REQUIRE_PERF_ENV();
  const uint32_t k = 12;
  const Graph g = PerfGraph(k);
  const KronFitLikelihood model({0.9, 0.6, 0.2}, k);
  // Two chain banks from one seed: bit-identity keeps them in lockstep,
  // so every interleaved rep advances both through the exact same
  // trajectory (identical work on both sides by construction).
  Rng seed_a(99), seed_b(99);
  MetropolisChains scalar_chains(g, k, 1, seed_a);
  MetropolisChains simd_chains(g, k, 1, seed_b);
  const uint64_t swaps = 2 * uint64_t{g.NumNodes()};
  const double speedup = InterleavedSpeedup(
      7, [&] { scalar_chains.Advance(model, swaps); },
      [&] { simd_chains.Advance(model, swaps); });
  EXPECT_EQ(scalar_chains.BestLogLikelihood(model),
            simd_chains.BestLogLikelihood(model));
  EXPECT_GE(speedup, 0.9) << "AVX2 Metropolis path regressed below the "
                             "scalar fallback: "
                          << speedup << "x";
}

}  // namespace
}  // namespace dpkron
