// AVX2 lane kernel of the exact SKG sampler (see exact_sampler_kernels.h
// for the threshold tables and the dispatch contract). Each 64-bit lane
// of the ymm registers is one xoshiro256** stream position, stepped with
// exactly the scalar generator's integer operations, so lane j's draws
// are bit for bit the draws a sequential loop makes over lane j's
// stretch of the pair sweep.

#include "src/skg/exact_sampler_kernels.h"

#include "src/common/macros.h"

#ifdef __AVX2__
#include <immintrin.h>

namespace dpkron {
namespace {

template <int kBits>
inline __m256i Rotl64(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, kBits),
                         _mm256_srli_epi64(x, 64 - kBits));
}

// Steps per chunk of the hot loop; the hit buffer holds one entry per
// step, so it never overflows.
constexpr uint32_t kChunk = 256;

// Word w of the four lanes' xoshiro256 states in register w.
struct LaneStates {
  __m256i s0, s1, s2, s3;
};

// The steps of one chunk whose draw is below some lane's bound (well
// under 1% per lane on the registry Θ): the draws, the step index and
// the mask of lanes below their bound.
struct ChunkHits {
  alignas(32) uint64_t draws[kChunk][4];
  uint32_t step[kChunk];
  int lane_mask[kChunk];
};

// Runs `steps` ≤ kChunk steps of the four lanes and returns how many of
// them went to `hits`. The loop records every step unconditionally and
// advances the count by 0 or 1, so it has no branch and no call: out of
// line, the four states stay in registers (GCC spills them to the stack
// when the loop shares a function with the edge pushes).
[[gnu::noinline]] uint32_t RunChunk(LaneStates& state, __m256i row_bound,
                                    uint32_t first_step, uint32_t steps,
                                    ChunkHits* hits) {
  __m256i s0 = state.s0, s1 = state.s1, s2 = state.s2, s3 = state.s3;
  uint32_t count = 0;
  for (uint32_t i = 0; i < steps; ++i) {
    // Output: rotl(s1 · 5, 7) · 9.
    const __m256i times5 = _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
    const __m256i rotated = Rotl64<7>(times5);
    const __m256i out =
        _mm256_add_epi64(_mm256_slli_epi64(rotated, 3), rotated);
    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = Rotl64<45>(s3);

    // Draws are below 2^53 and bounds at most 2^53, so the signed
    // 64-bit compare is the unsigned one.
    const __m256i draw = _mm256_srli_epi64(out, 11);
    const int below = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(row_bound, draw)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(hits->draws[count]), draw);
    hits->step[count] = first_step + i;
    hits->lane_mask[count] = below;
    count += below != 0;
  }
  state = {s0, s1, s2, s3};
  return count;
}

}  // namespace

void SweepExactLanesAvx2(const ExactSweepTables& tables, uint32_t n,
                         uint64_t block, ExactLane lanes[4],
                         std::vector<uint64_t>* keys) {
  DPKRON_CHECK(tables.every_pair_draws);
  alignas(32) uint64_t words[4][4];
  for (int w = 0; w < 4; ++w) {
    for (int j = 0; j < 4; ++j) words[w][j] = lanes[j].s[w];
  }
  const auto load = [&](int w) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(words[w]));
  };
  LaneStates state = {load(0), load(1), load(2), load(3)};
  // Per-lane edges, appended in lane order at the end: the stretches
  // are consecutive, so `keys` stays in sweep order.
  std::vector<uint64_t> lane_keys[4];
  ChunkHits hits{};
  uint64_t done = 0;
  while (done < block) {
    // A run ends at the first row end of any lane, so every lane keeps
    // one row — and one bound — for the whole run.
    uint64_t run = block - done;
    for (int j = 0; j < 4; ++j) {
      run = std::min<uint64_t>(run, n - lanes[j].v);
    }
    long long bound[4];
    for (int j = 0; j < 4; ++j) {
      bound[j] = static_cast<long long>(
          tables.row_bound[__builtin_popcount(lanes[j].u)]);
    }
    const __m256i row_bound =
        _mm256_setr_epi64x(bound[0], bound[1], bound[2], bound[3]);
    for (uint64_t first = 0; first < run; first += kChunk) {
      const uint32_t count = RunChunk(
          state, row_bound, static_cast<uint32_t>(first),
          static_cast<uint32_t>(std::min<uint64_t>(kChunk, run - first)),
          &hits);
      for (uint32_t h = 0; h < count; ++h) {
        for (int j = 0; j < 4; ++j) {
          if (((hits.lane_mask[h] >> j) & 1) == 0) continue;
          const uint32_t u = lanes[j].u;
          const uint32_t v = lanes[j].v + hits.step[h];
          if (hits.draws[h][j] < tables.threshold[tables.ClassIndex(u, v)]) {
            lane_keys[j].push_back(GraphBuilder::PackEdge(u, v));
          }
        }
      }
    }
    done += run;
    for (int j = 0; j < 4; ++j) AdvancePair(n, run, lanes[j].u, lanes[j].v);
  }
  const __m256i final_words[4] = {state.s0, state.s1, state.s2, state.s3};
  for (int w = 0; w < 4; ++w) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(words[w]), final_words[w]);
    for (int j = 0; j < 4; ++j) lanes[j].s[w] = words[w][j];
  }
  for (const std::vector<uint64_t>& edges : lane_keys) {
    keys->insert(keys->end(), edges.begin(), edges.end());
  }
}

}  // namespace dpkron

#else  // !__AVX2__

namespace dpkron {

void SweepExactLanesAvx2(const ExactSweepTables&, uint32_t, uint64_t,
                         ExactLane[4], std::vector<uint64_t>*) {
  DPKRON_CHECK_MSG(false, "AVX2 kernel called in a non-AVX2 build");
}

}  // namespace dpkron

#endif  // __AVX2__
