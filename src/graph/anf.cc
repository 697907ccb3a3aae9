#include "src/graph/anf.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "src/common/macros.h"
#include "src/common/parallel.h"
#include "src/common/simd.h"
#include "src/common/vec_kernels.h"

namespace dpkron {
namespace {

// Flajolet–Martin bias correction constant: E[2^R] ≈ n / 0.77351.
constexpr double kFmPhi = 0.77351;

// Per-node work is O(degree · trials); mid-size chunks balance hubs.
constexpr size_t kAnfGrain = 512;

// Hard cap on expansion rounds (hops).
constexpr uint32_t kMaxHops = 64;

// Index of the lowest zero bit of x (0-based); 64 if x is all ones.
inline uint32_t LowestZeroBit(uint64_t x) {
  const uint64_t inverted = ~x;
  if (inverted == 0) return 64;
  return static_cast<uint32_t>(__builtin_ctzll(inverted));
}

// Draws an FM-distributed bit: bit j set with probability 2^-(j+1).
inline uint64_t FmBit(Rng& rng) {
  // Equivalent to a geometric(1/2) draw; clamp to 63.
  const uint32_t leading = static_cast<uint32_t>(
      __builtin_ctzll(rng.NextU64() | (1ULL << 63)));
  return 1ULL << (leading < 64 ? leading : 63);
}

}  // namespace

std::vector<uint64_t> ApproxHopPlot(GraphView graph, Rng& rng,
                                    const AnfOptions& options) {
  DPKRON_CHECK_GT(options.num_trials, 0u);
  const uint32_t n = graph.NumNodes();
  const uint32_t trials = options.num_trials;
  if (n == 0) return {0};

  // masks[u*trials + t]: sketch of the ball around u in trial t. Seeded
  // from per-chunk split streams so the realization is a function of the
  // seed and the chunk grain only — not of the thread count.
  std::vector<uint64_t> masks(static_cast<size_t>(n) * trials);
  ParallelForChunksWithRng(
      n, kAnfGrain, rng,
      [&](const ParallelChunk& chunk, Rng& chunk_rng) {
        for (size_t u = chunk.begin; u < chunk.end; ++u) {
          for (uint32_t t = 0; t < trials; ++t) {
            masks[u * trials + t] = FmBit(chunk_rng);
          }
        }
      });

  auto estimate_total = [&]() {
    return static_cast<uint64_t>(
        ParallelSum(n, kAnfGrain, [&](size_t begin, size_t end) {
          double partial = 0.0;
          for (size_t u = begin; u < end; ++u) {
            double mean_r = 0.0;
            for (uint32_t t = 0; t < trials; ++t) {
              mean_r += LowestZeroBit(masks[u * trials + t]);
            }
            mean_r /= trials;
            partial += std::pow(2.0, mean_r) / kFmPhi;
          }
          return partial;
        }));
  };

  std::vector<uint64_t> hop_plot;
  hop_plot.push_back(estimate_total());  // h = 0

  std::vector<uint64_t> next(masks.size());
  for (uint32_t hop = 1; hop <= kMaxHops; ++hop) {
    // One full CSR traversal per expand round — the irreducible pass
    // count of the iterative ANF family.
    graph.CountPass("anf_round");
    next = masks;
    // Node u's expand round reads masks[] (previous hop, immutable here)
    // and writes only next[u·trials ...] — disjoint across nodes, so the
    // merged sketches are exact at any thread count.
    std::atomic<bool> changed{false};
    // Bitwise OR-merge is order-free, so the AVX2 kernel is exact. The
    // AVX2 path hands the whole neighbor walk to one kernel call per
    // node (crossing the ISA boundary per neighbor costs more than the
    // merge itself at ANF's sketch widths). The scalar path folds the
    // change test into a branch-free `grown` word per row, which lets
    // the compiler vectorize its inner loop.
    const bool use_avx2 = Avx2Active();
    ParallelForChunks(n, kAnfGrain, [&](const ParallelChunk& chunk) {
      // One store per chunk: in the early rounds nearly every node
      // changes, and a store per node would keep `changed`'s line moving
      // between workers.
      bool chunk_changed = false;
      for (size_t u = chunk.begin; u < chunk.end; ++u) {
        uint64_t* dst = &next[u * trials];
        const auto neighbors =
            graph.Neighbors(static_cast<Graph::NodeId>(u));
        if (use_avx2) {
          chunk_changed |= OrMergeRowAvx2(dst, masks.data(), trials,
                                          neighbors.data(), neighbors.size());
        } else {
          uint64_t grown = 0;
          for (Graph::NodeId v : neighbors) {
            const uint64_t* src = &masks[static_cast<size_t>(v) * trials];
            for (uint32_t t = 0; t < trials; ++t) {
              const uint64_t merged = dst[t] | src[t];
              grown |= merged ^ dst[t];
              dst[t] = merged;
            }
          }
          chunk_changed |= grown != 0;
        }
      }
      if (chunk_changed) changed.store(true, std::memory_order_relaxed);
    });
    masks.swap(next);
    if (!changed.load(std::memory_order_relaxed)) {
      break;  // All balls saturated: N(h) has converged.
    }
    hop_plot.push_back(estimate_total());
  }
  // N(0) = n and N(1) = n + 2E are known exactly; pin them (the FM
  // sketch's multiplicative bias is worst at tiny per-node counts) and
  // restore monotonicity for the estimated tail.
  hop_plot[0] = n;
  if (hop_plot.size() > 1) hop_plot[1] = n + 2 * graph.NumEdges();
  for (size_t h = 1; h < hop_plot.size(); ++h) {
    hop_plot[h] = std::max(hop_plot[h], hop_plot[h - 1]);
  }
  return hop_plot;
}

}  // namespace dpkron
