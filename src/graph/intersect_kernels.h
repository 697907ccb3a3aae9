// AVX2 sorted-set intersection kernels for triangle counting (defined
// in triangles_avx2.cc, compiled with -mavx2; reach only behind
// Avx2Active()).
//
// Inputs are strictly-sorted duplicate-free uint32 lists (CSR adjacency
// rows / forward lists). Block-merge strategy: compare an 8-lane block
// of each list against all 8 rotations of the other, advance the block
// with the smaller maximum — every value pair is compared exactly once,
// so equality counts need no dedup. Heavily skewed length ratios fall
// back to galloping binary search. Counting is integer work, so results
// are trivially identical to the scalar merge in triangles.cc.
// IntersectAvx2 is the per-pair body of the chunk kernel, exposed so
// tests can drive every tail-remainder shape directly.

#ifndef DPKRON_GRAPH_INTERSECT_KERNELS_H_
#define DPKRON_GRAPH_INTERSECT_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace dpkron {

// Writes a ∩ b (ascending) into `out` (capacity ≥ min(a_len, b_len));
// returns the intersection size.
size_t IntersectAvx2(const uint32_t* a, size_t a_len, const uint32_t* b,
                     size_t b_len, uint32_t* out);

// Whole-chunk entry point: the per-edge enumeration loop lives inside
// the AVX2 translation unit so the ISA boundary is crossed once per
// chunk, not once per intersection (per-call transitions leave dirty
// ymm uppers that poison the caller's legacy-SSE code with false
// dependencies). `offsets`/`targets` are the forward-oriented CSR
// (triangles.cc); the chunk covers the apex rows [begin, end).
//
// Adds each triangle with apex in [begin, end) to all three of its
// corners in `counts` (length n, caller-owned accumulator). `scratch`
// holds intersection outputs; capacity ≥ the longest forward list.
void PerNodeTrianglesChunkAvx2(const uint32_t* offsets,
                               const uint32_t* targets, size_t begin,
                               size_t end, uint64_t* counts,
                               uint32_t* scratch);

}  // namespace dpkron

#endif  // DPKRON_GRAPH_INTERSECT_KERNELS_H_
