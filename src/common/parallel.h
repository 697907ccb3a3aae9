// Reusable parallel-execution layer: a persistent thread pool plus
// ParallelFor-style helpers that every hot kernel (sampling, triangles,
// ANF, SpMV, …) shares.
//
// Determinism contract — the load-bearing design decision:
//   * Work is divided into chunks whose boundaries depend ONLY on the
//     problem size `n` and the `grain`, never on the thread count.
//   * Chunks are identified by a deterministic index; anything
//     order-sensitive (floating-point reduction, RNG streams) is keyed
//     to the chunk index and combined in chunk order after the parallel
//     section.
//   * Which OS thread executes which chunk is dynamic (work stealing via
//     an atomic cursor), so per-*worker* state may be used only for
//     commutative accumulation (e.g. integer counts).
//   * Placement: state a chunk or worker writes in its hot loop (an Rng,
//     a counter, a vector it pushes to) sits on its own 64-byte cache
//     line — alignas(64) on the per-worker struct, as Rng itself is —
//     or is accumulated in a local and stored to the shared array once
//     at the end. Neighbours in one std::vector otherwise keep taking
//     each other's line, and adding threads makes the section slower.
//     Placement never changes a value, only where it lives.
// Under this contract every kernel in dpkron produces bit-identical
// results at 1, 2 or 64 threads (tests/parallel_test.cc enforces it).
//
// Thread count: std::thread::hardware_concurrency(), overridable at
// runtime with SetParallelThreadCount() (the binaries' --threads flag
// and DPKRON_THREADS, see ApplyRuntimeFlags in core/cli_flags.h). Nested ParallelFor calls degrade gracefully
// to serial execution inside a worker.

#ifndef DPKRON_COMMON_PARALLEL_H_
#define DPKRON_COMMON_PARALLEL_H_

#include <array>
#include <cstddef>
#include <functional>
#include <vector>

#include "src/common/rng.h"

namespace dpkron {

// Current number of workers (>= 1). The calling thread counts as a
// worker, so 1 means fully serial.
int ParallelThreadCount();

// Sets the worker count (values < 1 clamp to 1). Safe to call between
// parallel sections; tears down and respawns the pool threads.
void SetParallelThreadCount(int threads);

// One chunk of an index range [0, n).
struct ParallelChunk {
  size_t begin = 0;  // first index, inclusive
  size_t end = 0;    // last index, exclusive
  size_t index = 0;  // chunk number — deterministic, 0-based
  size_t worker = 0; // executing worker in [0, ParallelThreadCount())
};

// Number of chunks ParallelForChunks creates for (n, grain): the fixed
// decomposition ceil(n / max(grain, 1)).
size_t ParallelChunkCount(size_t n, size_t grain);

// Runs fn over every chunk of [0, n); blocks until all chunks finish.
// fn must be thread-safe across chunks.
void ParallelForChunks(size_t n, size_t grain,
                       const std::function<void(const ParallelChunk&)>& fn);

// Element-wise convenience: fn(i) for every i in [0, n).
template <typename Fn>
void ParallelFor(size_t n, size_t grain, Fn&& fn) {
  ParallelForChunks(n, grain, [&fn](const ParallelChunk& chunk) {
    for (size_t i = chunk.begin; i < chunk.end; ++i) fn(i);
  });
}

// Deterministic floating-point reduction: partial_fn(begin, end) is
// evaluated per chunk and the partials are added left-to-right in chunk
// order, so the result is independent of the thread count (though it can
// differ from a single un-chunked summation — the chunking, not the
// threading, defines the value).
double ParallelSum(size_t n, size_t grain,
                   const std::function<double(size_t begin, size_t end)>&
                       partial_fn);

// N-component variant of ParallelSum under the same determinism
// contract: partial_fn(begin, end) returns a chunk-local array and the
// partials are combined component-wise in chunk order. Used for
// small fixed-width reductions (e.g. the 3-component KronFit gradient)
// where one fused pass beats N scalar reductions.
template <size_t N, typename Fn>
std::array<double, N> ParallelSumArray(size_t n, size_t grain,
                                       Fn&& partial_fn) {
  std::array<double, N> total{};
  if (n == 0) return total;
  std::vector<std::array<double, N>> partials(ParallelChunkCount(n, grain));
  ParallelForChunks(n, grain, [&](const ParallelChunk& chunk) {
    partials[chunk.index] = partial_fn(chunk.begin, chunk.end);
  });
  for (const std::array<double, N>& partial : partials) {
    for (size_t i = 0; i < N; ++i) total[i] += partial[i];
  }
  return total;
}

// `count` independent child streams split off `parent` in index order —
// the per-chunk RNG protocol: stream i belongs to chunk i regardless of
// which worker runs it.
std::vector<Rng> SplitRngStreams(Rng& parent, size_t count);

// ParallelForChunks with a per-chunk Rng derived via SplitRngStreams.
void ParallelForChunksWithRng(
    size_t n, size_t grain, Rng& rng,
    const std::function<void(const ParallelChunk&, Rng&)>& fn);

}  // namespace dpkron

#endif  // DPKRON_COMMON_PARALLEL_H_
