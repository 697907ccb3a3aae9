#include "src/skg/class_sampler.h"

#include "src/common/macros.h"
#include "src/graph/graph_builder.h"
#include "src/skg/kronecker.h"

namespace dpkron {
namespace internal_class_sampler {

uint64_t Choose(uint32_t n, uint32_t m) {
  if (m > n) return 0;
  if (m > n - m) m = n - m;
  __uint128_t result = 1;
  for (uint32_t t = 1; t <= m; ++t) {
    result = result * (n - m + t) / t;  // exact: prefix products divide
    DPKRON_CHECK_MSG(result <= UINT64_MAX, "binomial coefficient overflow");
  }
  return static_cast<uint64_t>(result);
}

uint64_t ClassSize(uint32_t k, uint32_t i, uint32_t j) {
  if (j == 0) return 0;  // equal-digit pairs are the (discarded) diagonal
  if (i + j > k) return 0;
  const uint64_t placements = Choose(k, i) * Choose(k - i, j);
  return placements << (j - 1);
}

void UnrankCombination(uint32_t n, uint32_t m, uint64_t rank, uint32_t* out) {
  // Lexicographic order over sorted m-subsets of {0, ..., n−1}.
  uint32_t next = 0;
  for (uint32_t slot = 0; slot < m; ++slot) {
    for (;; ++next) {
      const uint64_t with_next = Choose(n - 1 - next, m - slot - 1);
      if (rank < with_next) break;
      rank -= with_next;
    }
    out[slot] = next++;
  }
  DPKRON_CHECK_EQ(rank, 0u);
}

PairUV UnrankPair(uint32_t k, uint32_t i, uint32_t j, uint64_t rank) {
  DPKRON_CHECK_GE(j, 1u);
  DPKRON_CHECK_LE(i + j, k);
  DPKRON_CHECK_LT(rank, ClassSize(k, i, j));
  const uint64_t patterns = uint64_t{1} << (j - 1);
  const uint64_t pattern = rank % patterns;
  rank /= patterns;
  const uint64_t c2 = Choose(k - i, j);
  const uint64_t ones_rank = rank / c2;
  const uint64_t differ_rank = rank % c2;

  uint32_t ones[32];
  UnrankCombination(k, i, ones_rank, ones);
  uint32_t differ_rel[32];
  UnrankCombination(k - i, j, differ_rank, differ_rel);

  // Translate the differ positions from "index among the k−i non-ones
  // positions" to absolute bit positions.
  uint64_t ones_mask = 0;
  for (uint32_t t = 0; t < i; ++t) ones_mask |= uint64_t{1} << ones[t];
  uint32_t remaining[32];
  uint32_t count = 0;
  for (uint32_t bit = 0; bit < k; ++bit) {
    if (!(ones_mask & (uint64_t{1} << bit))) remaining[count++] = bit;
  }

  PairUV pair{ones_mask, ones_mask};
  // Differ positions in increasing bit order; differ_rel is sorted, so
  // the LAST one is the highest bit. Canonicalize: u gets 0 there (thus
  // u < v); the other j−1 differ bits of u follow `pattern`.
  for (uint32_t t = 0; t < j; ++t) {
    const uint64_t bit = uint64_t{1} << remaining[differ_rel[t]];
    const bool highest = (t == j - 1);
    const bool u_gets_one = !highest && ((pattern >> t) & 1);
    if (u_gets_one) {
      pair.u |= bit;
    } else {
      pair.v |= bit;
    }
  }
  DPKRON_CHECK_LT(pair.u, pair.v);
  return pair;
}

}  // namespace internal_class_sampler

Graph SampleSkgClassSkip(const Initiator2& theta, uint32_t k, Rng& rng) {
  using internal_class_sampler::ClassSize;
  using internal_class_sampler::UnrankPair;
  DPKRON_CHECK_MSG(theta.IsValid(), "initiator entries outside [0,1]");
  DPKRON_CHECK_GE(k, 1u);
  DPKRON_CHECK_LE(k, 30u);

  const uint32_t n = uint32_t{1} << k;
  GraphBuilder builder(n);
  for (uint32_t i = 0; i + 1 <= k; ++i) {        // both-ones count
    for (uint32_t j = 1; i + j <= k; ++j) {      // differ count
      const uint64_t size = ClassSize(k, i, j);
      if (size == 0) continue;
      const double p =
          PowInt(theta.a, k - i - j) * PowInt(theta.b, j) * PowInt(theta.c, i);
      if (p <= 0.0) continue;
      if (p >= 1.0) {
        // Deterministic class: every pair is an edge.
        for (uint64_t rank = 0; rank < size; ++rank) {
          const auto [u, v] = UnrankPair(k, i, j, rank);
          builder.AddEdge(static_cast<Graph::NodeId>(u),
                          static_cast<Graph::NodeId>(v));
        }
        continue;
      }
      // Exact Binomial thinning of the class via geometric skips.
      uint64_t index = rng.NextGeometric(p);
      while (index < size) {
        const auto [u, v] = UnrankPair(k, i, j, index);
        builder.AddEdge(static_cast<Graph::NodeId>(u),
                        static_cast<Graph::NodeId>(v));
        // A skip past the class end (possibly a saturated UINT64_MAX)
        // ends it; adding it could wrap the index.
        const uint64_t skip = rng.NextGeometric(p);
        if (skip >= size - index) break;
        index += 1 + skip;
      }
    }
  }
  return builder.Build();
}

}  // namespace dpkron
