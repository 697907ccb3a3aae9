// Runtime SIMD dispatch for the vectorized kernels.
//
// The library is compiled for the portable x86-64 baseline (plus the
// guarded -mpopcnt); only the *_avx2.cc translation units are built with
// -mavx2, and they are reached exclusively through the level check below,
// so the binary still runs on pre-AVX2 silicon. An AVX2 twin exists only
// where it measurably beats its scalar loop: the ANF row merge
// (OrMergeRowAvx2), the forward-list triangle intersection
// (PerNodeTrianglesChunkAvx2), the Metropolis swap loop
// (MetropolisSwapsAvx2) and the exact SKG sampler's lane sweep
// (SweepExactLanesAvx2). Every other kernel has one scalar body. The
// selected level is a pure performance choice: each twin is
// bit-identical to its scalar path (fixed reduction order, identical RNG
// consumption), which tests/simd_test.cc enforces across levels and
// thread counts. Forcing scalar therefore never changes results —
// scenario/sweep documents and privacy ledgers are byte-for-byte the
// same under `DPKRON_FORCE_SCALAR=1`.
//
// Level selection: Active = min(Detected, Cap). Detected probes the CPU
// (and whether the AVX2 TUs were actually compiled with AVX2 — the CMake
// flag probe can fail on exotic toolchains); Cap defaults to the highest
// level, is lowered to scalar by the DPKRON_FORCE_SCALAR environment
// variable (read once, at first use) — the one switch a user has — and
// is adjustable at runtime with SetSimdLevelCap (the parity tests'
// ScopedSimdLevelCap).

#ifndef DPKRON_COMMON_SIMD_H_
#define DPKRON_COMMON_SIMD_H_

#include <atomic>
#include <string>

namespace dpkron {

// Ordered: kAvx2 extends the baseline ISA the scalar code is built for
// (which already includes the guarded -mpopcnt).
enum class SimdLevel : int { kScalar = 0, kAvx2 = 1 };

// Best level this CPU + this build supports. Probed once.
SimdLevel DetectedSimdLevel();

// Current ceiling (default: highest; DPKRON_FORCE_SCALAR lowers it).
SimdLevel SimdLevelCap();
void SetSimdLevelCap(SimdLevel cap);

// "scalar" / "avx2" — the string recorded in bench/scenario
// context blocks.
const char* SimdLevelName(SimdLevel level);

// CPU brand string via CPUID (e.g. "Intel(R) Xeon(R) ..."), empty when
// unavailable; recorded next to the dispatch level so perf trajectories
// across heterogeneous CI runners stay interpretable.
std::string CpuBrandString();

// RAII cap override for tests and in-process A/B timing.
class ScopedSimdLevelCap {
 public:
  explicit ScopedSimdLevelCap(SimdLevel cap) : saved_(SimdLevelCap()) {
    SetSimdLevelCap(cap);
  }
  ~ScopedSimdLevelCap() { SetSimdLevelCap(saved_); }
  ScopedSimdLevelCap(const ScopedSimdLevelCap&) = delete;
  ScopedSimdLevelCap& operator=(const ScopedSimdLevelCap&) = delete;

 private:
  SimdLevel saved_;
};

namespace simd_internal {
// min(Detected, Cap), memoized; -1 until the first ActiveSimdLevel()
// call. Relaxed atomics: the value is a pure function of (CPU, build,
// cap), so racing initializers publish the same result.
extern std::atomic<int> g_active;
SimdLevel InitActiveSimdLevel();
}  // namespace simd_internal

// The level the dispatched kernels run at: min(Detected, Cap). Inline
// fast path (one relaxed load) — this sits on per-call hot paths like
// SwapDelta.
inline SimdLevel ActiveSimdLevel() {
  const int v = simd_internal::g_active.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<SimdLevel>(v);
  return simd_internal::InitActiveSimdLevel();
}

inline bool Avx2Active() { return ActiveSimdLevel() >= SimdLevel::kAvx2; }

// Defined in src/common/vec_kernels_avx2.cc: true iff the *_avx2.cc TUs
// were really compiled with AVX2 enabled (the CMake -mavx2 probe can
// fail, in which case those TUs contain only unreachable stubs and
// detection must not select kAvx2).
bool Avx2KernelsCompiled();

}  // namespace dpkron

#endif  // DPKRON_COMMON_SIMD_H_
