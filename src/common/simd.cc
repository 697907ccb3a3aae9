#include "src/common/simd.h"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace dpkron {
namespace simd_internal {

std::atomic<int> g_active{-1};

namespace {

// Cap storage: -1 = "not yet initialized from the environment".
std::atomic<int> g_cap{-1};

int DetectLevel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") && Avx2KernelsCompiled()) {
    return static_cast<int>(SimdLevel::kAvx2);
  }
#endif
  return static_cast<int>(SimdLevel::kScalar);
}

int CapOrInit() {
  int cap = g_cap.load(std::memory_order_relaxed);
  if (cap < 0) {
    // First use: honor DPKRON_FORCE_SCALAR (any value other than empty
    // or "0" forces the scalar path), else no ceiling.
    const char* force = std::getenv("DPKRON_FORCE_SCALAR");
    cap = (force != nullptr && force[0] != '\0' &&
           std::strcmp(force, "0") != 0)
              ? static_cast<int>(SimdLevel::kScalar)
              : static_cast<int>(SimdLevel::kAvx2);
    g_cap.store(cap, std::memory_order_relaxed);
  }
  return cap;
}

}  // namespace

SimdLevel InitActiveSimdLevel() {
  const int detected = DetectLevel();
  const int cap = CapOrInit();
  const int active = detected < cap ? detected : cap;
  g_active.store(active, std::memory_order_relaxed);
  return static_cast<SimdLevel>(active);
}

}  // namespace simd_internal

SimdLevel DetectedSimdLevel() {
  static const SimdLevel detected =
      static_cast<SimdLevel>(simd_internal::DetectLevel());
  return detected;
}

SimdLevel SimdLevelCap() {
  return static_cast<SimdLevel>(simd_internal::CapOrInit());
}

void SetSimdLevelCap(SimdLevel cap) {
  simd_internal::g_cap.store(static_cast<int>(cap),
                             std::memory_order_relaxed);
  // Invalidate the memoized active level; the next ActiveSimdLevel()
  // call recomputes min(detected, cap).
  simd_internal::g_active.store(-1, std::memory_order_relaxed);
  (void)simd_internal::InitActiveSimdLevel();
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::string CpuBrandString() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "";
  char brand[49] = {};
  unsigned int regs[4];
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + 16 * leaf, regs, 16);
  }
  // Trim the leading padding spaces some CPUs emit.
  const char* start = brand;
  while (*start == ' ') ++start;
  return start;
#else
  return "";
#endif
}

}  // namespace dpkron
