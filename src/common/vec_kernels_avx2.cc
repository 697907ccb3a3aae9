// AVX2 translation unit: this file (and the other *_avx2.cc TUs) is the
// only code compiled with -mavx2; see CMakeLists.txt. When the compiler
// lacks the flag the TU still builds, Avx2KernelsCompiled() reports
// false, dispatch never selects kAvx2, and the kernel bodies become
// unreachable aborting stubs.

#include "src/common/vec_kernels.h"

#include "src/common/macros.h"
#include "src/common/simd.h"

#ifdef __AVX2__
#include <immintrin.h>
#endif

namespace dpkron {

bool Avx2KernelsCompiled() {
#ifdef __AVX2__
  return true;
#else
  return false;
#endif
}

#ifdef __AVX2__

// OrMergeRowAvx2 ends with _mm256_zeroupper(): its caller is a
// legacy-SSE translation unit, and returning with dirty ymm uppers gives
// each of its SSE instructions a false dependency on the stale upper
// halves.

bool OrMergeRowAvx2(uint64_t* dst, const uint64_t* masks, size_t trials,
                    const uint32_t* neighbors, size_t degree) {
  __m256i changed = _mm256_setzero_si256();
  bool tail_changed = false;
  for (size_t e = 0; e < degree; ++e) {
    const uint64_t* src = masks + size_t{neighbors[e]} * trials;
    size_t i = 0;
    for (; i + 4 <= trials; i += 4) {
      const __m256i d =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
      const __m256i s =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      const __m256i merged = _mm256_or_si256(d, s);
      changed = _mm256_or_si256(changed, _mm256_xor_si256(merged, d));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), merged);
    }
    for (; i < trials; ++i) {
      const uint64_t merged = dst[i] | src[i];
      tail_changed |= (merged != dst[i]);
      dst[i] = merged;
    }
  }
  const bool any = tail_changed || !_mm256_testz_si256(changed, changed);
  _mm256_zeroupper();
  return any;
}

#else  // !__AVX2__ — unreachable stub (dispatch never selects kAvx2).

bool OrMergeRowAvx2(uint64_t*, const uint64_t*, size_t, const uint32_t*,
                    size_t) {
  DPKRON_CHECK_MSG(false, "AVX2 kernel called in a non-AVX2 build");
  return false;
}

#endif  // __AVX2__

}  // namespace dpkron
