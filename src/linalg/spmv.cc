#include "src/linalg/spmv.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "src/common/macros.h"
#include "src/common/parallel.h"

namespace dpkron {
namespace {

// Row work is proportional to degree; modest chunks let the pool balance
// hub-heavy CSR rows. Vector helpers use coarser chunks (O(1) per item).
constexpr size_t kRowGrain = 256;
constexpr size_t kVectorGrain = 8192;

// Runs fn over the fixed `grain`-element chunks of [0, n): in chunk order
// on the calling thread below kMinParallelVector, on the pool otherwise.
// The chunks are the same either way, so results do not depend on the
// path.
template <typename Fn>
void ForEachVectorChunk(size_t n, size_t grain, Fn&& fn) {
  if (n >= kMinParallelVector) {
    ParallelForChunks(n, grain, fn);
    return;
  }
  ParallelChunk chunk;
  for (; chunk.begin < n; ++chunk.index, chunk.begin = chunk.end) {
    chunk.end = std::min(n, chunk.begin + grain);
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

namespace {

// The reductions below fill the partials of up to kGroupChunks adjacent
// chunks in one task. Each chunk keeps its own accumulator and its own
// element order, so every partial is the one a chunk-at-a-time loop
// gives. Interleaving them puts kGroupChunks independent add chains in
// flight instead of one: a chunk-at-a-time loop waits on the latency of
// its one chain, not on memory bandwidth.
constexpr size_t kGroupChunks = 4;
constexpr size_t kGroupSpan = kGroupChunks * kVectorGrain;

// One step of a fused Gram–Schmidt pass: w += alpha * x (the deferred
// Axpy of the previous basis vector), then the per-chunk partials of q·w.
// Only the kAxpy instantiations read x and write w, so Dot passes its
// const operand through w.
struct FusedStep {
  double alpha = 0.0;
  const double* x = nullptr;
  const double* q = nullptr;
  double* w = nullptr;
};

// Rows [row_begin, row_end) of the first G chunks of the group starting
// at `base`, accumulated into sums[0, G).
template <size_t G, bool kAxpy>
void InterleaveRows(const FusedStep& step, size_t base, size_t row_begin,
                    size_t row_end, double* sums) {
  // Locals, so the stores to w cannot alias step's fields.
  const double alpha = step.alpha;
  const double* x = step.x + base;
  const double* q = step.q + base;
  double* w = step.w + base;
  double acc[G];
  for (size_t j = 0; j < G; ++j) acc[j] = sums[j];
  for (size_t r = row_begin; r < row_end; ++r) {
    for (size_t j = 0; j < G; ++j) {
      const size_t i = j * kVectorGrain + r;
      if constexpr (kAxpy) w[i] += alpha * x[i];
      acc[j] += q[i] * w[i];
    }
  }
  for (size_t j = 0; j < G; ++j) sums[j] = acc[j];
}

template <bool kAxpy>
void InterleaveRows(size_t chunks, const FusedStep& step, size_t base,
                    size_t row_begin, size_t row_end, double* sums) {
  switch (chunks) {
    case 4:
      return InterleaveRows<4, kAxpy>(step, base, row_begin, row_end, sums);
    case 3:
      return InterleaveRows<3, kAxpy>(step, base, row_begin, row_end, sums);
    case 2:
      return InterleaveRows<2, kAxpy>(step, base, row_begin, row_end, sums);
    case 1:
      return InterleaveRows<1, kAxpy>(step, base, row_begin, row_end, sums);
  }
}

// Partials of the chunks in the group [begin, end) (at most kGroupSpan
// elements, begin a multiple of kGroupSpan). Only the vector's last chunk
// can be short, so rows [0, last) exist in every chunk of the group and
// rows [last, kVectorGrain) in all but the last one.
template <bool kAxpy>
void FillGroupPartials(const FusedStep& step, size_t begin, size_t end,
                       double* partials) {
  const size_t chunks = ParallelChunkCount(end - begin, kVectorGrain);
  const size_t last = end - begin - (chunks - 1) * kVectorGrain;
  std::fill(partials, partials + chunks, 0.0);
  InterleaveRows<kAxpy>(chunks, step, begin, 0, last, partials);
  if (chunks > 1) {
    InterleaveRows<kAxpy>(chunks - 1, step, begin, last, kVectorGrain,
                          partials);
  }
}

// Runs one fused step over [0, n), one group per task, and returns q·w
// as the per-chunk partials added left to right in chunk order.
// `scratch` holds the partials of vectors too long for the stack buffer
// (which covers every vector that runs on the calling thread).
template <bool kAxpy>
double FusedDot(const FusedStep& step, size_t n,
                std::vector<double>& scratch) {
  const size_t count = ParallelChunkCount(n, kVectorGrain);
  double stack[kMinParallelVector / kVectorGrain];
  double* partials = stack;
  if (count > std::size(stack)) {
    scratch.resize(count);
    partials = scratch.data();
  }
  ForEachVectorChunk(n, kGroupSpan, [&](const ParallelChunk& group) {
    FillGroupPartials<kAxpy>(step, group.begin, group.end,
                             partials + group.index * kGroupChunks);
  });
  double total = 0.0;
  for (size_t i = 0; i < count; ++i) total += partials[i];
  return total;
}

}  // namespace

double Dot(const std::vector<double>& x, const std::vector<double>& y) {
  DPKRON_CHECK_EQ(x.size(), y.size());
  // Chunk-ordered reduction, as in ParallelSum: deterministic for a given
  // vector length regardless of thread count.
  FusedStep step;
  step.q = x.data();
  step.w = const_cast<double*>(y.data());  // read only: no Axpy
  std::vector<double> scratch;
  return FusedDot<false>(step, x.size(), scratch);
}

void OrthogonalizeAgainst(const std::vector<std::vector<double>>& basis,
                          std::vector<double>* w) {
  if (basis.empty()) return;
  const size_t n = w->size();
  std::vector<double> scratch;
  FusedStep step;
  step.w = w->data();
  double c = 0.0;
  for (size_t i = 0; i < basis.size(); ++i) {
    DPKRON_CHECK_EQ(basis[i].size(), n);
    DPKRON_CHECK(&basis[i] != w);
    step.q = basis[i].data();
    if (i == 0) {
      c = FusedDot<false>(step, n, scratch);
    } else {
      step.alpha = -c;
      step.x = basis[i - 1].data();
      c = FusedDot<true>(step, n, scratch);
    }
  }
  Axpy(-c, basis.back(), w);
}

// Dot, OrthogonalizeAgainst and AdjacencyMatVec keep their sequential
// chunk/row reduction order: it is the frozen determinism contract behind
// the Lanczos-derived scenario outputs. Axpy and Scale are element-wise
// (one rounding per element) and run as plain loops; explicit AVX2 twins
// of them were measured no faster.
void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y) {
  DPKRON_CHECK_EQ(x.size(), y->size());
  const double* x_data = x.data();
  double* y_data = y->data();
  ForEachVectorChunk(x.size(), kVectorGrain, [&](const ParallelChunk& chunk) {
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      y_data[i] += alpha * x_data[i];
    }
  });
}

void Scale(double alpha, std::vector<double>* x) {
  double* x_data = x->data();
  ForEachVectorChunk(x->size(), kVectorGrain, [&](const ParallelChunk& chunk) {
    for (size_t i = chunk.begin; i < chunk.end; ++i) x_data[i] *= alpha;
  });
}

}  // namespace dpkron
