// Synthetic-graph release pipeline and the five evaluation statistics.
//
// Once an estimator Θ̃ is published, "anyone interested in studying
// statistical properties of the original graph G can sample the
// distribution to yield a synthetic graph GS" (§1) — and average a
// statistic over several samples. This module packages exactly that:
// the five statistics panels of Figs 1–4, computed on one graph or
// averaged over R realizations of an initiator.

#ifndef DPKRON_CORE_RELEASE_H_
#define DPKRON_CORE_RELEASE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stat_cache.h"
#include "src/graph/graph_view.h"
#include "src/graph/node_stats.h"
#include "src/skg/initiator.h"
#include "src/skg/sampler.h"

namespace dpkron {

// The five statistics the paper plots. Series use double y-values so the
// same struct holds single-realization counts and cross-realization means.
struct GraphStatistics {
  // (degree, count) — panel (b).
  std::vector<std::pair<double, double>> degree_histogram;
  // N(h) for h = 0, 1, ... — panel (a).
  std::vector<double> hop_plot;
  // top singular values, descending — panel (c).
  std::vector<double> scree;
  // |principal eigenvector| components, descending — panel (d).
  std::vector<double> network_value;
  // (degree, mean clustering coefficient) — panel (e).
  std::vector<std::pair<double, double>> clustering_by_degree;

  // Exact equality — the currency of the thread-count-invariance tests.
  bool operator==(const GraphStatistics&) const = default;
};

// StatCache byte-budget accounting (see ApproxCacheBytes in
// common/stat_cache.h): the five panel series are the footprint.
inline size_t ApproxCacheBytes(const GraphStatistics& stats) {
  return sizeof(stats) +
         stats.degree_histogram.capacity() * sizeof(std::pair<double, double>) +
         stats.hop_plot.capacity() * sizeof(double) +
         stats.scree.capacity() * sizeof(double) +
         stats.network_value.capacity() * sizeof(double) +
         stats.clustering_by_degree.capacity() * sizeof(std::pair<double, double>);
}

// The StatCache domains of ReleasePipeline::Compute and Expected: bump a
// layout whenever its function's output changes (tests/stat_cache_test.cc
// pins each beside a digest).
extern const CacheDomain<GraphStatistics> kStatisticsDomain;
extern const CacheDomain<GraphStatistics> kExpectedDomain;

struct StatisticsOptions {
  uint32_t num_singular_values = 50;
  // Components of the network-value series kept (plots truncate anyway).
  uint32_t num_network_values = 1000;
  // Use the ANF sketch for hop plots above this node count (exact below).
  uint32_t exact_hop_plot_limit = 4096;
  uint32_t anf_trials = 32;
};

// The release pipeline behind every scenario: sample synthetic graphs
// from an initiator and compute the five statistics panels, once or
// averaged over R realizations.
//
// Determinism contract (matching src/common/parallel.h): Expected() fans
// realizations across the thread pool with one Rng::Split stream per
// realization — stream r belongs to realization r regardless of which
// worker runs it — and aggregates the per-realization results in
// realization order, so the mean is bit-identical at 1, 2 or 8 threads
// (tests/parallel_test.cc enforces it).
//
// StatCache integration: when the process-wide StatCache is enabled,
// Compute() and Expected() are memoized on every input they are a pure
// function of — graph fingerprint / (Θ, k, R), the statistics options,
// and the Rng state — and Compute() leaves the rng in the state the
// original computation left it in (StatCache::MemoizeDraws), so
// downstream draws are identical whether the panels were computed or
// served. An ε sweep thus computes each deterministic panel set once,
// not once per ε.
class ReleasePipeline {
 public:
  explicit ReleasePipeline(StatisticsOptions options = {});

  // All five statistics of one concrete graph. The degree vector and
  // per-node triangle counts are materialized once — served through the
  // StatCache when enabled — and feed both the histogram and the
  // clustering-by-degree panel.
  GraphStatistics Compute(GraphView graph, Rng& rng) const;

  // "Expected" statistics: mean of each statistic over `realizations`
  // samples of the SKG (Θ, k) — the paper's 100-realization averages.
  // Degree histogram / clustering series are aggregated per degree value;
  // positional series (hop plot, scree, network value) are averaged per
  // index (shorter series are padded with their final value, matching how
  // saturated hop plots behave).
  GraphStatistics Expected(const Initiator2& theta, uint32_t k,
                           uint32_t realizations, Rng& rng) const;

  // One synthetic graph from an estimated parameter (the "KronFit" /
  // "KronMom" / "Private" single-realization series), drawn with
  // SkgSampleMethod::kClassSkip.
  Graph Sample(const Initiator2& theta, uint32_t k, Rng& rng) const;

  // Compute()/Expected() without memoization, for inputs that cannot
  // recur — e.g. the sample of a per-run private Θ̃, whose ε-dependent
  // fingerprint no later run shares. Values and rng consumption are
  // identical to the cached paths; the only difference is that nothing
  // is stored, which keeps the never-evicted StatCache from
  // accumulating one-off O(N) entries across a sweep.
  GraphStatistics ComputeEphemeral(GraphView graph, Rng& rng) const;
  GraphStatistics ExpectedEphemeral(const Initiator2& theta, uint32_t k,
                                    uint32_t realizations, Rng& rng) const;

  const StatisticsOptions& options() const { return options_; }

 private:
  // The five panels from `graph` and its node stats: Compute() passes
  // the CachedNodeStats entry, the ephemeral and Expected() paths a
  // fresh ComputeNodeStats of their one-off graphs.
  GraphStatistics ComputeImpl(GraphView graph, const NodeStats& node_stats,
                              Rng& rng) const;
  GraphStatistics ExpectedImpl(const Initiator2& theta, uint32_t k,
                               uint32_t realizations,
                               std::vector<Rng>& streams) const;

  StatisticsOptions options_;
};

}  // namespace dpkron

#endif  // DPKRON_CORE_RELEASE_H_
