#include "src/skg/sampler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/macros.h"
#include "src/common/parallel.h"
#include "src/common/simd.h"
#include "src/graph/graph_builder.h"
#include "src/skg/class_sampler.h"
#include "src/skg/exact_sampler_kernels.h"
#include "src/skg/kronecker.h"
#include "src/skg/moments.h"

namespace dpkron {
namespace {

inline uint64_t PackEdgeKey(uint32_t u, uint32_t v) {
  return GraphBuilder::PackEdge(std::min(u, v), std::max(u, v));
}

// Normalized quadrant law of a 2×2 initiator, in the fixed digit order
// (bit_u, bit_v) = (0,0), (0,1), (1,0), (1,1). The CDF drives single-ball
// descents; the probabilities drive multinomial splits.
struct QuadrantLaw {
  double q[4];
  double cdf[3];
};

QuadrantLaw MakeQuadrantLaw(const Initiator2& theta) {
  const double sum = theta.EntrySum();
  QuadrantLaw law;
  law.q[0] = theta.a / sum;
  law.q[1] = theta.b / sum;
  law.q[2] = theta.b / sum;
  law.q[3] = theta.c / sum;
  law.cdf[0] = law.q[0];
  law.cdf[1] = law.cdf[0] + law.q[1];
  law.cdf[2] = law.cdf[1] + law.q[2];
  return law;
}

// Both fast generators draw the total edge count from the normal
// approximation of the Poisson-binomial edge-count law: variance
// Σ p(1−p) ≈ mean for the sparse graphs the model targets.
uint64_t DrawTargetEdges(const Initiator2& theta, uint32_t k, Rng& rng) {
  const uint32_t n_bits = k;
  const double n = std::ldexp(1.0, static_cast<int>(n_bits));
  const double mean_edges = ExpectedEdges(theta, k);
  double target = mean_edges +
                  std::sqrt(std::max(mean_edges, 1.0)) * rng.NextGaussian();
  const double max_edges = 0.5 * n * (n - 1.0);
  target = std::min(std::max(target, 0.0), max_edges);
  return static_cast<uint64_t>(std::llround(target));
}

// ------------------------------ exact sampler ------------------------------
//
// One coin per pair (u, v), u < v, in row-major order on the caller's
// stream, decided by integer thresholds (exact_sampler_kernels.h). The
// draws, the graph and the stream's end state are those of the per-pair
// loop `if (rng.NextBernoulli(prob(u, v))) AddEdge(u, v)`.

ExactSweepTables MakeExactSweepTables(const Initiator2& theta, uint32_t k) {
  const EdgeProbability2 prob(theta, k);
  ExactSweepTables tables;
  tables.k = k;
  tables.threshold.assign((k + 1) * (k + 1), ExactSweepTables::kNoDraw);
  for (uint32_t n11 = 0; n11 <= k; ++n11) {
    for (uint32_t nb = 0; n11 + nb <= k; ++nb) {
      tables.threshold[n11 * (k + 1) + nb] =
          ExactCoinThreshold(prob.ClassProbability(n11, nb));
    }
  }
  // The pairs (u, v > u) of a row with popcount(u) = w fall in classes
  // n11 ≤ w, nb = (w − n11) + j, where j counts the digits with a 0 in u
  // and a 1 in v: 1 ≤ j ≤ k − w, since v > u has such a digit.
  tables.row_bound.assign(k + 1, 0);
  tables.every_pair_draws = true;
  for (uint32_t w = 0; w <= k; ++w) {
    for (uint32_t n11 = 0; n11 <= w; ++n11) {
      for (uint32_t nb = w - n11 + 1; nb <= k - n11; ++nb) {
        const uint64_t t = tables.threshold[n11 * (k + 1) + nb];
        if (t == ExactSweepTables::kNoDraw ||
            t == ExactSweepTables::kAlwaysEdge) {
          tables.every_pair_draws = false;
        }
        tables.row_bound[w] = std::max(tables.row_bound[w], t);
      }
    }
  }
  return tables;
}

// xoshiro256** on four words held in locals (so they stay in registers
// across the edge pushes), returning NextDouble()'s 53-bit integer.
struct LocalStream {
  uint64_t s0, s1, s2, s3;

  uint64_t NextDraw() {
    const uint64_t x = s1 * 5;
    const uint64_t out = ((x << 7) | (x >> 57)) * 9;
    const uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = (s3 << 45) | (s3 >> 19);
    return out >> 11;
  }
};

// The sweep from pair (u, v) to the end on one stream position `s`.
void SweepExactScalar(const ExactSweepTables& tables, uint32_t n,
                      uint32_t u, uint32_t v, uint64_t s[4],
                      std::vector<uint64_t>* keys) {
  const uint64_t* threshold = tables.threshold.data();
  LocalStream stream{s[0], s[1], s[2], s[3]};
  for (; u + 1 < n; ++u, v = u + 1) {
    if (tables.every_pair_draws) {
      const uint64_t bound = tables.row_bound[__builtin_popcount(u)];
      for (; v < n; ++v) {
        const uint64_t draw = stream.NextDraw();
        if (__builtin_expect(draw < bound, 0) &&
            draw < threshold[tables.ClassIndex(u, v)]) {
          keys->push_back(GraphBuilder::PackEdge(u, v));
        }
      }
    } else {
      for (; v < n; ++v) {
        const uint64_t t = threshold[tables.ClassIndex(u, v)];
        if (t == ExactSweepTables::kNoDraw) continue;
        if (t == ExactSweepTables::kAlwaysEdge || stream.NextDraw() < t) {
          keys->push_back(GraphBuilder::PackEdge(u, v));
        }
      }
    }
  }
  s[0] = stream.s0;
  s[1] = stream.s1;
  s[2] = stream.s2;
  s[3] = stream.s3;
}

// Draws per lane stretch. The output does not depend on it; it sets how
// often the lanes jump (three Discard calls per group of four).
constexpr uint64_t kExactLaneBlock = uint64_t{1} << 16;

// Runs on the calling thread, never on the pool: one request's 4^k sweep
// holding the pool workers would stall every other request's parallel
// sections (a pool-fanned variant raised `dpkrond` p50 latency ~2×).
Graph SampleExact2(const Initiator2& theta, uint32_t k, Rng& rng) {
  DPKRON_CHECK_MSG(k <= 14, "exact sampler limited to k <= 14 (O(4^k))");
  const ExactSweepTables tables = MakeExactSweepTables(theta, k);
  const uint32_t n = uint32_t{1} << k;
  std::vector<uint64_t> keys;
  // The stream is stepped on a local copy of its words; the Gaussian
  // spare is written back untouched.
  Rng::State state = rng.SaveState();
  uint32_t u = 0, v = 1;
  if (tables.every_pair_draws && Avx2Active()) {
    // Groups of four consecutive stretches; lane j starts where j
    // stretches of sequential draws would leave the stream. The tail
    // (less than one group) runs on the scalar loop below.
    const uint64_t pairs = uint64_t{n} * (n - 1) / 2;
    Rng jumper;
    ExactLane lanes[4];
    for (uint64_t start = 0; start + 4 * kExactLaneBlock <= pairs;
         start += 4 * kExactLaneBlock) {
      jumper.RestoreState(state);
      for (int j = 0; j < 4; ++j) {
        if (j > 0) {
          jumper.Discard(kExactLaneBlock);
          AdvancePair(n, kExactLaneBlock, u, v);
        }
        const Rng::State lane_state = jumper.SaveState();
        std::copy(lane_state.s, lane_state.s + 4, lanes[j].s);
        lanes[j].u = u;
        lanes[j].v = v;
      }
      SweepExactLanesAvx2(tables, n, kExactLaneBlock, lanes, &keys);
      std::copy(lanes[3].s, lanes[3].s + 4, state.s);
      u = lanes[3].u;
      v = lanes[3].v;
    }
  }
  SweepExactScalar(tables, n, u, v, state.s, &keys);
  rng.RestoreState(state);
  return GraphBuilder::FromPackedEdges(n, std::move(keys));
}

// One krongen-style quadrant descent from (u, v) at `level` down to the
// leaf cells; pushes the packed edge key unless the ball lands on the
// diagonal.
inline void DescendSingleBall(uint32_t u, uint32_t v, uint32_t level,
                              uint32_t k, const QuadrantLaw& law, Rng& rng,
                              std::vector<uint64_t>* keys) {
  for (; level < k; ++level) {
    const double r = rng.NextDouble();
    uint32_t bu = 0, bv = 0;
    if (r >= law.cdf[2]) {
      bu = 1;
      bv = 1;
    } else if (r >= law.cdf[1]) {
      bu = 1;
    } else if (r >= law.cdf[0]) {
      bv = 1;
    }
    u = (u << 1) | bu;
    v = (v << 1) | bv;
  }
  if (u != v) keys->push_back(PackEdgeKey(u, v));
}

Graph SampleBallDrop(const Initiator2& theta, uint32_t k, Rng& rng) {
  // Placements attempted per target edge before duplicate-avoidance
  // gives up.
  constexpr double kAttemptFactor = 30.0;
  DPKRON_CHECK_LT(k, 32u);
  const uint32_t n = uint32_t{1} << k;
  const double sum = theta.EntrySum();
  const uint64_t target = sum <= 0.0 ? 0 : DrawTargetEdges(theta, k, rng);
  if (target == 0) return GraphBuilder(n).Build();
  const QuadrantLaw law = MakeQuadrantLaw(theta);

  // Distinct placements accumulate as packed keys deduped by sort+unique
  // per round — no hash set, no per-edge allocation. The pre-reserve is
  // clamped: a Gaussian-perturbed target in a dense corner can be
  // enormous, and reserving `2 × target` up front used to request
  // gigabytes before a single ball dropped.
  constexpr uint64_t kMaxReserve = uint64_t{1} << 22;  // 32 MiB of keys
  std::vector<uint64_t> keys;
  keys.reserve(static_cast<size_t>(std::min(target + target / 16 + 64,
                                            kMaxReserve)));
  const uint64_t max_attempts = static_cast<uint64_t>(
      kAttemptFactor * static_cast<double>(target)) + 64;
  uint64_t attempts = 0;
  uint64_t distinct = 0;
  while (distinct < target && attempts < max_attempts) {
    // One candidate per missing edge, then dedup; the duplicate fraction
    // shrinks geometrically across rounds on sparse graphs.
    const uint64_t batch =
        std::min(target - distinct, max_attempts - attempts);
    for (uint64_t i = 0; i < batch; ++i, ++attempts) {
      DescendSingleBall(0, 0, 0, k, law, rng, &keys);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    distinct = keys.size();
  }
  return GraphBuilder::FromPackedEdges(n, std::move(keys));
}

// ------------------------- edge-skipping sampler -------------------------
//
// Instead of dropping balls one at a time, the target count is split
// multinomially across the four Kronecker quadrants, level by level:
// a region of the pair space that receives zero balls — in particular
// every region under a zero-probability initiator entry — is skipped
// outright, and the binomial splits themselves skip over failure runs
// geometrically (Rng::NextBinomial). Once a region's count reaches one,
// the remaining levels collapse to a plain quadrant descent. Total work
// is O(E·k) with small constants, and disjoint regions are independent,
// which is what the thread pool exploits.

struct EdgeSkipRegion {
  uint32_t u_prefix = 0;
  uint32_t v_prefix = 0;
  uint32_t level = 0;
  uint64_t count = 0;
};

// Splits `count` balls across the four quadrants by chained conditional
// binomials — together an exact Multinomial(count, q) draw.
inline void SplitRegionCounts(uint64_t count, const QuadrantLaw& law,
                              Rng& rng, uint64_t out[4]) {
  double remaining_prob = 1.0;
  uint64_t remaining = count;
  for (int quad = 0; quad < 3; ++quad) {
    if (remaining == 0) {
      out[quad] = 0;
      continue;
    }
    double p = remaining_prob > 0.0 ? law.q[quad] / remaining_prob : 1.0;
    if (p > 1.0) p = 1.0;  // floating slop near exhausted mass
    out[quad] = rng.NextBinomial(remaining, p);
    remaining -= out[quad];
    remaining_prob -= law.q[quad];
  }
  out[3] = remaining;
}

void DescendRegion(uint32_t u, uint32_t v, uint32_t level, uint64_t count,
                   uint32_t k, const QuadrantLaw& law, Rng& rng,
                   std::vector<uint64_t>* keys) {
  if (count == 0) return;
  if (level == k) {
    // Leaf cell: multiplicity collapses to one simple edge; diagonal
    // cells are the dropped self-loops.
    if (u != v) keys->push_back(PackEdgeKey(u, v));
    return;
  }
  if (count == 1) {
    DescendSingleBall(u, v, level, k, law, rng, keys);
    return;
  }
  uint64_t child[4];
  SplitRegionCounts(count, law, rng, child);
  // Fixed quadrant order — part of the determinism contract.
  DescendRegion((u << 1) | 0, (v << 1) | 0, level + 1, child[0], k, law, rng,
                keys);
  DescendRegion((u << 1) | 0, (v << 1) | 1, level + 1, child[1], k, law, rng,
                keys);
  DescendRegion((u << 1) | 1, (v << 1) | 0, level + 1, child[2], k, law, rng,
                keys);
  DescendRegion((u << 1) | 1, (v << 1) | 1, level + 1, child[3], k, law, rng,
                keys);
}

Graph SampleEdgeSkip(const Initiator2& theta, uint32_t k, Rng& rng) {
  DPKRON_CHECK_MSG(k <= 30, "edge-skip sampler limited to k <= 30");
  const uint32_t n = uint32_t{1} << k;
  const double sum = theta.EntrySum();
  const uint64_t target = sum <= 0.0 ? 0 : DrawTargetEdges(theta, k, rng);
  if (target == 0) return GraphBuilder(n).Build();
  const QuadrantLaw law = MakeQuadrantLaw(theta);

  // Breadth-first multinomial expansion (sequential, on the caller's
  // stream) until there are enough non-empty regions to keep the pool
  // busy. Regions at the same level are disjoint blocks of the pair
  // space; their counts are already final. The region target is a fixed
  // constant — NOT a function of the thread count — because the
  // expansion consumes the caller's stream and the per-region stream
  // assignment must be identical on every machine.
  std::vector<EdgeSkipRegion> frontier = {{0, 0, 0, target}};
  constexpr size_t kDesiredRegions = 256;
  while (frontier.front().level < k && frontier.size() < kDesiredRegions) {
    std::vector<EdgeSkipRegion> next;
    next.reserve(4 * frontier.size());
    for (const EdgeSkipRegion& region : frontier) {
      uint64_t child[4];
      SplitRegionCounts(region.count, law, rng, child);
      for (uint32_t quad = 0; quad < 4; ++quad) {
        if (child[quad] == 0) continue;  // the skip
        next.push_back({(region.u_prefix << 1) | (quad >> 1),
                        (region.v_prefix << 1) | (quad & 1),
                        region.level + 1, child[quad]});
      }
    }
    frontier.swap(next);  // counts are conserved, so `next` is non-empty
  }

  // Parallel phase: region i gets split stream i (assigned in region
  // order, independent of which worker runs it) and its own edge batch;
  // batches are concatenated in region order and canonicalized by the
  // shared sort+unique CSR build. Cross-region duplicates are possible —
  // mirrored blocks canonicalize to the same unordered pair — and are
  // removed there.
  std::vector<Rng> streams = SplitRngStreams(rng, frontier.size());
  std::vector<std::vector<uint64_t>> batches(frontier.size());
  ParallelFor(frontier.size(), 1, [&](size_t i) {
    const EdgeSkipRegion& region = frontier[i];
    // Filled locally and moved in once: every push_back writes the
    // vector header, and neighbouring batches' headers share a line.
    std::vector<uint64_t> batch;
    batch.reserve(static_cast<size_t>(
        std::min<uint64_t>(region.count, uint64_t{1} << 20)));
    DescendRegion(region.u_prefix, region.v_prefix, region.level,
                  region.count, k, law, streams[i], &batch);
    batches[i] = std::move(batch);
  });

  size_t total = 0;
  for (const auto& batch : batches) total += batch.size();
  std::vector<uint64_t> keys;
  keys.reserve(total);
  for (const auto& batch : batches) {
    keys.insert(keys.end(), batch.begin(), batch.end());
  }
  return GraphBuilder::FromPackedEdges(n, std::move(keys));
}

}  // namespace

Graph SampleSkg(const Initiator2& theta, uint32_t k, Rng& rng,
                const SkgSampleOptions& options) {
  DPKRON_CHECK_MSG(theta.IsValid(), "initiator entries outside [0,1]");
  DPKRON_CHECK_GE(k, 1u);
  switch (options.method) {
    case SkgSampleMethod::kExact:
      return SampleExact2(theta, k, rng);
    case SkgSampleMethod::kBallDrop:
      return SampleBallDrop(theta, k, rng);
    case SkgSampleMethod::kClassSkip:
      return SampleSkgClassSkip(theta, k, rng);
    case SkgSampleMethod::kEdgeSkip:
      return SampleEdgeSkip(theta, k, rng);
  }
  DPKRON_CHECK_MSG(false, "unknown sample method");
  return Graph();
}

Graph SampleSkgN(const InitiatorN& theta, uint32_t k, Rng& rng) {
  const uint64_t n64 = KroneckerNodeCount(theta.dim(), k);
  DPKRON_CHECK_MSG(n64 <= (uint64_t{1} << 14),
                   "general exact sampler limited to 2^14 nodes");
  const uint32_t n = static_cast<uint32_t>(n64);
  GraphBuilder builder(n);
  // Directed realization restricted to the lower triangle (u > v): this is
  // precisely "symmetrize A* by keeping A*_uv for u > v and drop loops".
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = 0; v < u; ++v) {
      if (rng.NextBernoulli(EdgeProbabilityN(theta, k, u, v))) {
        builder.AddEdge(u, v);
      }
    }
  }
  return builder.Build();
}

}  // namespace dpkron
