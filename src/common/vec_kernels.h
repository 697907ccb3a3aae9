// The ANF expand-round AVX2 kernel (defined in vec_kernels_avx2.cc,
// compiled with -mavx2). OR-merging is pure bitwise work, so the result
// is bit-identical to the scalar loop in graph/anf.cc at every dispatch
// level. Callers must only reach it behind an Avx2Active() check — when
// the AVX2 TUs were compiled without AVX2 support it is an unreachable
// aborting stub.

#ifndef DPKRON_COMMON_VEC_KERNELS_H_
#define DPKRON_COMMON_VEC_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace dpkron {

// ANF expand round for one node: dst[t] |= masks[v·trials + t] for
// every v in neighbors[0, degree). Returns true iff any dst word
// changed. One call per node keeps the whole neighbor walk inside the
// AVX2 translation unit instead of crossing the ISA boundary per
// neighbor.
bool OrMergeRowAvx2(uint64_t* dst, const uint64_t* masks, size_t trials,
                    const uint32_t* neighbors, size_t degree);

}  // namespace dpkron

#endif  // DPKRON_COMMON_VEC_KERNELS_H_
