// AVX2 implementation of the sorted-set intersection kernels (see
// intersect_kernels.h for the algorithm and dispatch contract).

#include "src/graph/intersect_kernels.h"

#include <algorithm>

#include "src/common/macros.h"

#ifdef __AVX2__
#include <immintrin.h>

namespace dpkron {
namespace {

// A length ratio this skewed makes per-element galloping beat the
// block merge (which walks the long list 8 elements at a time).
constexpr size_t kGallopRatioShift = 5;  // ratio 32

// Loads up to 8 lanes from p (remaining < 8 → masked load) with the
// invalid lanes forced to UINT32_MAX. Node ids fit in 31 bits, so the
// sentinel can never equal a real list value: sentinel lanes only ever
// "match" other sentinel lanes, and those matches are stripped by the
// a-side validity mask at the compare site. This is what lets the block
// merge run entirely in vector registers — SKG adjacency is sparse
// (most forward lists are shorter than one 8-lane block), so a scalar
// tail loop would otherwise BE the kernel, not its remainder.
inline __m256i LoadBlockPadded(const uint32_t* p, size_t remaining) {
  if (remaining >= 8) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i valid = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(remaining)), lane);
  const __m256i v =
      _mm256_maskload_epi32(reinterpret_cast<const int*>(p), valid);
  return _mm256_blendv_epi8(_mm256_set1_epi32(-1), v, valid);
}

// OR of lane-wise equality between a and all 8 rotations of b: bit i of
// the result is set iff a's lane i occurs anywhere in b's block.
inline unsigned MatchMask8(__m256i a, __m256i b) {
  __m256i m = _mm256_cmpeq_epi32(a, b);
#define DPKRON_ROT_CMP(r)                                              \
  m = _mm256_or_si256(                                                 \
      m, _mm256_cmpeq_epi32(                                           \
             a, _mm256_permutevar8x32_epi32(                           \
                    b, _mm256_setr_epi32((r) % 8, ((r) + 1) % 8,       \
                                         ((r) + 2) % 8, ((r) + 3) % 8, \
                                         ((r) + 4) % 8, ((r) + 5) % 8, \
                                         ((r) + 6) % 8, ((r) + 7) % 8))))
  DPKRON_ROT_CMP(1);
  DPKRON_ROT_CMP(2);
  DPKRON_ROT_CMP(3);
  DPKRON_ROT_CMP(4);
  DPKRON_ROT_CMP(5);
  DPKRON_ROT_CMP(6);
  DPKRON_ROT_CMP(7);
#undef DPKRON_ROT_CMP
  return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(m)));
}

// Galloping intersection of a short list against a long one; calls
// emit(x) for each common value, ascending.
template <typename Emit>
inline void GallopIntersect(const uint32_t* small_list, size_t small_len,
                            const uint32_t* large_list, size_t large_len,
                            Emit&& emit) {
  size_t base = 0;
  for (size_t i = 0; i < small_len && base < large_len; ++i) {
    const uint32_t x = small_list[i];
    size_t offset = 1;
    while (base + offset < large_len && large_list[base + offset] < x) {
      offset <<= 1;
    }
    const size_t hi = std::min(base + offset + 1, large_len);
    base = static_cast<size_t>(
        std::lower_bound(large_list + base, large_list + hi, x) -
        large_list);
    if (base < large_len && large_list[base] == x) {
      emit(x);
      ++base;
    }
  }
}

// Block-merge main loop, fully vectorized: tail blocks are loaded
// masked with UINT32_MAX sentinel padding (LoadBlockPadded), so there
// is no scalar merge — every comparison is an 8×8 block compare. Each
// (a-block, b-block) pair whose ranges overlap is compared exactly
// once: the block with the smaller maximum advances, on a tie both do,
// and a sentinel-padded tail (max = UINT32_MAX, above every real id)
// never advances before the other side exhausts. Sentinel lanes of a
// are stripped from the match mask before emission; sentinel lanes of b
// can only match sentinel lanes of a (already stripped), never a real
// id. Matches are emitted in ascending value order — within one block
// pair by lane order, across block pairs because both lists are
// strictly sorted.
template <typename OnBlockMask>
inline void BlockIntersect(const uint32_t* a, size_t a_len,
                           const uint32_t* b, size_t b_len,
                           OnBlockMask&& on_mask) {
  const uint32_t a_last = a[a_len - 1], b_last = b[b_len - 1];
  size_t i = 0, j = 0;
  __m256i va = LoadBlockPadded(a, a_len);
  __m256i vb = LoadBlockPadded(b, b_len);
  for (;;) {
    unsigned m = MatchMask8(va, vb);
    const size_t a_rem = a_len - i;
    if (a_rem < 8) m &= (1u << a_rem) - 1;
    if (m) on_mask(m, i);
    const uint32_t amax = (a_rem > 8) ? a[i + 7] : a_last;
    const uint32_t bmax = (b_len - j > 8) ? b[j + 7] : b_last;
    if (amax <= bmax) {
      i += 8;
      // No remaining a value can match once the whole of b lies below
      // the next a block (and vice versa below): both lists are sorted.
      if (i >= a_len || a[i] > b_last) break;
      va = LoadBlockPadded(a + i, a_len - i);
    }
    if (bmax <= amax) {
      j += 8;
      if (j >= b_len || b[j] > a_last) break;
      vb = LoadBlockPadded(b + j, b_len - j);
    }
  }
}

// Internal body, shared by IntersectAvx2 and the chunk loop below. Only
// the public functions issue vzeroupper — the chunk loop stays in AVX
// state across every intersection and clears the uppers once on exit.
inline size_t IntersectImpl(const uint32_t* a, size_t a_len,
                            const uint32_t* b, size_t b_len,
                            uint32_t* out) {
  if (a_len > b_len) {
    std::swap(a, b);
    std::swap(a_len, b_len);
  }
  size_t n = 0;
  if (a_len == 0) return 0;
  // Dominant case at SKG degrees: both lists fit one (padded) block —
  // a single all-rotations compare, no merge loop at all.
  if (a_len <= 8 && b_len <= 8) {
    unsigned m = MatchMask8(LoadBlockPadded(a, a_len),
                            LoadBlockPadded(b, b_len)) &
                 ((1u << a_len) - 1);
    while (m) {
      out[n++] = a[static_cast<unsigned>(__builtin_ctz(m))];
      m &= m - 1;
    }
    return n;
  }
  if ((b_len >> kGallopRatioShift) >= a_len) {
    GallopIntersect(a, a_len, b, b_len,
                    [&](uint32_t x) { out[n++] = x; });
    return n;
  }
  BlockIntersect(a, a_len, b, b_len, [&](unsigned mask, size_t i) {
    while (mask) {
      out[n++] = a[i + static_cast<unsigned>(__builtin_ctz(mask))];
      mask &= mask - 1;
    }
  });
  return n;
}

}  // namespace

size_t IntersectAvx2(const uint32_t* a, size_t a_len, const uint32_t* b,
                     size_t b_len, uint32_t* out) {
  const size_t n = IntersectImpl(a, a_len, b, b_len, out);
  _mm256_zeroupper();
  return n;
}

void PerNodeTrianglesChunkAvx2(const uint32_t* offsets,
                               const uint32_t* targets, size_t begin,
                               size_t end, uint64_t* counts,
                               uint32_t* scratch) {
  for (size_t u = begin; u < end; ++u) {
    const uint32_t* fu = targets + offsets[u];
    const size_t fu_len = offsets[u + 1] - offsets[u];
    for (size_t vi = 0; vi < fu_len; ++vi) {
      const uint32_t v = fu[vi];
      const size_t matches =
          IntersectImpl(fu, fu_len, targets + offsets[v],
                        offsets[v + 1] - offsets[v], scratch);
      counts[u] += matches;
      counts[v] += matches;
      for (size_t m = 0; m < matches; ++m) ++counts[scratch[m]];
    }
  }
  _mm256_zeroupper();
}

}  // namespace dpkron

#else  // !__AVX2__ — unreachable stubs (dispatch never selects kAvx2).

namespace dpkron {

size_t IntersectAvx2(const uint32_t*, size_t, const uint32_t*, size_t,
                     uint32_t*) {
  DPKRON_CHECK_MSG(false, "AVX2 kernel called in a non-AVX2 build");
  return 0;
}

void PerNodeTrianglesChunkAvx2(const uint32_t*, const uint32_t*, size_t,
                               size_t, uint64_t*, uint32_t*) {
  DPKRON_CHECK_MSG(false, "AVX2 kernel called in a non-AVX2 build");
}

}  // namespace dpkron

#endif  // __AVX2__
