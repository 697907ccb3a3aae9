// Smooth sensitivity of the triangle count (Nissim, Raskhodnikova & Smith,
// STOC'07) — steps 4–5 of Algorithm 1.
//
// For a node pair (i, j) let
//   a_ij = number of common neighbors of i and j,
//   b_ij = number of nodes adjacent to exactly one of i, j (excl. i, j).
// Flipping edge {i,j} changes ∆ by a_ij, so LS_∆(G) = max_ij a_ij. With s
// edge modifications an adversary can raise a_ij to
//   c_ij(s) = min( a_ij + ⌊(s + min(s, b_ij)) / 2⌋ , n − 2 ),
// giving the local sensitivity at distance s, LS^(s)(G) = max_ij c_ij(s),
// and the β-smooth sensitivity SS_β(G) = max_{s≥0} e^{−βs} · LS^(s)(G).
//
// c_ij(s) is non-decreasing in both a_ij and b_ij, so the max over pairs
// is attained on the Pareto frontier of {(a_ij, b_ij)}, and a pair that
// a real pair weakly dominates can be skipped. The profile is computed
// EXACTLY for every graph (this matters: an inexact upper bound is easy
// to produce but can silently lose the β-smoothness property the
// privacy proof needs, and switching bounds by graph is not smooth
// either). Pairs fall into three classes:
//   * distance ≤ 2 with a common neighbor — exact (a, b) from a wedge
//     walk, certify-and-skip:
//       1. Seed: the top kSeedSources = 32 nodes by degree (desc, id
//          asc) are walked against every 2-hop partner, cut once the
//          walks have read as many adjacency entries as the graph
//          holds. Their points, as a suffix max S[a], bound the
//          frontier from below.
//       2. Clear: with M(v) the largest degree in N(v) and
//          D(u) = max_{v∈N(u)} M(v), every pair (u, x) with a common
//          neighbor has a ≤ min(d_u, D(u)) and b ≤ d_u + D(u) − 2a. Node
//          u is cleared iff S[a] ≥ d_u + D(u) − 2a for every such a:
//          all its pairs are then dominated by a seed pair.
//       3. Walk: only pairs of two open (uncleared) nodes remain. Each
//          open source visits all its common neighbors but reads
//          partners from an adjacency that keeps only open nodes.
//   * adjacent — covered exactly by the dominated-or-exact candidate
//     (0, d_u + d_v − 2) per edge, whose maximum is
//     max_u d_u + M(u) − 2;
//   * distance > 2 — a = 0 and b = d_i + d_j exactly, so only the
//     maximum degree sum over far pairs matters, and only above the
//     class-2 maximum. It is found exactly by visiting sources in
//     degree-rank order, each with its N≤2 stamped, until no later pair
//     can beat the best sum found.

#ifndef DPKRON_DP_SMOOTH_SENSITIVITY_H_
#define DPKRON_DP_SMOOTH_SENSITIVITY_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stat_cache.h"
#include "src/graph/graph_view.h"

namespace dpkron {

// The per-distance local-sensitivity profile of ∆ at a fixed graph.
class TriangleSensitivityProfile {
 public:
  // Computes the profile of `graph` in O(m) for the M, D, clearing and
  // open-adjacency passes, plus the seed walks (≈ 2m adjacency reads
  // plus one source), plus the wedges i–v–j with both i and j open.
  // A star is linear (every leaf clears); K_{2,n} is still quadratic
  // (its leaf pairs (2, 0) never clear against the hubs' (n, 0)), and
  // so is any graph whose open nodes share hubs; Σ_w d_w² bounds every
  // case. Each pass is chunked across the thread pool, each worker folds
  // into its own counter array (O(N)) and max-b-per-a array, and the
  // merge is a max, so the profile is identical at any thread count.
  // The far-pair search is serial and costs at most as much as a full
  // wedge walk.
  explicit TriangleSensitivityProfile(GraphView graph);

  // Reassembles a profile from its serialized parts — the decode path of
  // the disk StatCache tier. `frontier` must be bytes a prior profile's
  // frontier() exposed; nothing is recomputed or validated here.
  TriangleSensitivityProfile(
      uint32_t num_nodes, std::vector<std::pair<uint64_t, uint64_t>> frontier)
      : num_nodes_(num_nodes), frontier_(std::move(frontier)) {}

  uint32_t num_nodes() const { return num_nodes_; }

  // LS^(s)(G).
  uint64_t LocalSensitivityAtDistance(uint64_t s) const;

  // LS_∆(G) = LS^(0).
  uint64_t LocalSensitivity() const { return LocalSensitivityAtDistance(0); }

  // SS_{β,∆}(G). Requires beta > 0.
  double SmoothSensitivity(double beta) const;

  // The Pareto-maximal (a, b) candidates (exposed for tests).
  const std::vector<std::pair<uint64_t, uint64_t>>& frontier() const {
    return frontier_;
  }

 private:
  uint32_t num_nodes_;
  std::vector<std::pair<uint64_t, uint64_t>> frontier_;  // (a, b), a desc
};

// StatCache byte-budget accounting (see ApproxCacheBytes in
// common/stat_cache.h): the frontier dominates the footprint.
inline size_t ApproxCacheBytes(const TriangleSensitivityProfile& profile) {
  return sizeof(profile) +
         profile.frontier().capacity() * sizeof(std::pair<uint64_t, uint64_t>);
}

// The profile of `graph`, served through the process-wide StatCache
// when it is enabled (keyed by the graph's content fingerprint — the
// profile is a deterministic pure function of the graph, so an ε sweep
// builds it once, not once per ε). With the cache disabled this is a
// plain computation.
std::shared_ptr<const TriangleSensitivityProfile>
CachedTriangleSensitivityProfile(GraphView graph);
// Its StatCache domain: bump the layout whenever the profile changes
// (tests/stat_cache_test.cc pins it beside a digest).
extern const CacheDomain<TriangleSensitivityProfile> kTriangleProfileDomain;

struct PrivateTriangleResult {
  double value = 0.0;               // ∆̃
  double exact = 0.0;               // ∆ (kept private by callers!)
  double smooth_sensitivity = 0.0;  // SS_{β,∆}(G)
  double beta = 0.0;
};

// (ε, δ)-differentially private triangle count via Theorem 4.8:
//   ∆̃ = ∆ + (2·SS_β/ε)·Lap(1),  β = ε / (2 ln(2/δ)).
// Requires epsilon > 0 and delta ∈ (0, 1). ∆ comes from the graph's
// cached node stats.
PrivateTriangleResult PrivateTriangleCount(GraphView graph, double epsilon,
                                           double delta, Rng& rng);

// The same mechanism with ∆ supplied by a caller that already holds the
// graph's node stats: `triangles` must be TotalTriangles of `graph`.
PrivateTriangleResult PrivateTriangleCount(GraphView graph, uint64_t triangles,
                                           double epsilon, double delta,
                                           Rng& rng);

}  // namespace dpkron

#endif  // DPKRON_DP_SMOOTH_SENSITIVITY_H_
