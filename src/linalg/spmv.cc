#include "src/linalg/spmv.h"

#include <algorithm>
#include <cmath>

#include "src/common/macros.h"
#include "src/common/parallel.h"
#include "src/common/simd.h"
#include "src/common/vec_kernels.h"

namespace dpkron {
namespace {

// Row work is proportional to degree; modest chunks let the pool balance
// hub-heavy CSR rows. Vector helpers use coarser chunks (O(1) per item).
constexpr size_t kRowGrain = 256;
constexpr size_t kVectorGrain = 8192;

// Runs fn over the fixed kVectorGrain chunks of [0, n): in chunk order on
// the calling thread below kMinParallelVector, on the pool otherwise. The
// chunks are the same either way, so results do not depend on the path.
template <typename Fn>
void ForEachVectorChunk(size_t n, Fn&& fn) {
  if (n >= kMinParallelVector) {
    ParallelForChunks(n, kVectorGrain, fn);
    return;
  }
  ParallelChunk chunk;
  for (; chunk.begin < n; ++chunk.index, chunk.begin = chunk.end) {
    chunk.end = std::min(n, chunk.begin + kVectorGrain);
    fn(chunk);
  }
}

}  // namespace

void AdjacencyMatVec(GraphView graph, const std::vector<double>& x,
                     std::vector<double>* y) {
  DPKRON_CHECK_EQ(x.size(), graph.NumNodes());
  DPKRON_CHECK_EQ(y->size(), graph.NumNodes());
  DPKRON_CHECK(&x != y);
  graph.CountPass("spmv");
  // Each row's sum keeps its sequential neighbor order, so outputs are
  // bit-identical to the serial kernel at any thread count.
  ParallelFor(graph.NumNodes(), kRowGrain, [&](size_t u) {
    double sum = 0.0;
    for (Graph::NodeId v : graph.Neighbors(static_cast<Graph::NodeId>(u))) {
      sum += x[v];
    }
    (*y)[u] = sum;
  });
}

double Norm2(const std::vector<double>& x) {
  return std::sqrt(Dot(x, x));
}

double Dot(const std::vector<double>& x, const std::vector<double>& y) {
  DPKRON_CHECK_EQ(x.size(), y.size());
  // Chunk-ordered reduction, as in ParallelSum: deterministic for a given
  // vector length regardless of thread count.
  std::vector<double> partials(ParallelChunkCount(x.size(), kVectorGrain));
  ForEachVectorChunk(x.size(), [&](const ParallelChunk& chunk) {
    double sum = 0.0;
    for (size_t i = chunk.begin; i < chunk.end; ++i) sum += x[i] * y[i];
    partials[chunk.index] = sum;
  });
  double total = 0.0;
  for (double partial : partials) total += partial;
  return total;
}

// Axpy and Scale are element-wise (one independent rounding per
// element), so their AVX2 paths are bit-identical by construction. Dot
// and AdjacencyMatVec stay scalar on purpose: their sequential
// chunk/row reduction order is the frozen determinism contract behind
// the Lanczos-derived scenario outputs, and vectorizing a summation
// means reassociating it.
void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y) {
  DPKRON_CHECK_EQ(x.size(), y->size());
  const bool avx2 = Avx2Active();
  const double* x_data = x.data();
  double* y_data = y->data();
  ForEachVectorChunk(x.size(), [&](const ParallelChunk& chunk) {
    if (avx2) {
      AxpyAvx2(alpha, x_data + chunk.begin, y_data + chunk.begin,
               chunk.end - chunk.begin);
      return;
    }
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      y_data[i] += alpha * x_data[i];
    }
  });
}

void Scale(double alpha, std::vector<double>* x) {
  const bool avx2 = Avx2Active();
  double* x_data = x->data();
  ForEachVectorChunk(x->size(), [&](const ParallelChunk& chunk) {
    if (avx2) {
      ScaleAvx2(alpha, x_data + chunk.begin, chunk.end - chunk.begin);
      return;
    }
    for (size_t i = chunk.begin; i < chunk.end; ++i) x_data[i] *= alpha;
  });
}

}  // namespace dpkron
