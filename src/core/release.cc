#include "src/core/release.h"

#include <algorithm>
#include <map>

#include "src/common/macros.h"
#include "src/common/parallel.h"
#include "src/graph/anf.h"
#include "src/graph/clustering.h"
#include "src/graph/degree.h"
#include "src/graph/hop_plot.h"
#include "src/graph/node_stats.h"
#include "src/linalg/lanczos.h"
#include "src/linalg/network_value.h"

namespace dpkron {
namespace {

// Field-wise GraphStatistics codec for the disk StatCache tier (all
// five panel series are flat POD vectors).
void EncodeGraphStatistics(const GraphStatistics& stats, RecordBuilder& rec) {
  EncodePodVector(rec, stats.degree_histogram);
  EncodePodVector(rec, stats.hop_plot);
  EncodePodVector(rec, stats.scree);
  EncodePodVector(rec, stats.network_value);
  EncodePodVector(rec, stats.clustering_by_degree);
}

std::optional<GraphStatistics> DecodeGraphStatistics(RecordParser& rec) {
  GraphStatistics stats;
  const bool ok = DecodePodVector(rec, &stats.degree_histogram) &&
                  DecodePodVector(rec, &stats.hop_plot) &&
                  DecodePodVector(rec, &stats.scree) &&
                  DecodePodVector(rec, &stats.network_value) &&
                  DecodePodVector(rec, &stats.clustering_by_degree);
  if (!ok) return std::nullopt;
  return stats;
}

}  // namespace

const CacheDomain<GraphStatistics> kStatisticsDomain{
    "statistics", 1, &EncodeGraphStatistics, &DecodeGraphStatistics};
const CacheDomain<GraphStatistics> kExpectedDomain{
    "expected", 1, &EncodeGraphStatistics, &DecodeGraphStatistics};

ReleasePipeline::ReleasePipeline(StatisticsOptions options)
    : options_(options) {}

GraphStatistics ReleasePipeline::Compute(GraphView graph,
                                         Rng& rng) const {
  return *StatCache::Instance().MemoizeDraws(
      kStatisticsDomain,
      CacheKey()
          .Mix(graph.ContentFingerprint())
          .Mix(options_.num_singular_values)
          .Mix(options_.num_network_values)
          .Mix(options_.exact_hop_plot_limit)
          .Mix(options_.anf_trials),
      rng, [&] { return ComputeImpl(graph, *CachedNodeStats(graph), rng); });
}

GraphStatistics ReleasePipeline::ComputeImpl(GraphView graph,
                                             const NodeStats& node_stats,
                                             Rng& rng) const {
  GraphStatistics stats;

  // The explicit fused-pass plan (tests/graph_view_test.cc pins it with
  // a PassCounter):
  //
  //   pass 1  "node_stats"  degree vector + per-node triangle counts
  //                         (the clustering numerators) in ONE CSR
  //                         traversal, supplied by the caller → degree
  //                         histogram + clustering panels; consumes no
  //                         RNG.
  //   pass 2+ hop plot      the iterative family: either n BFS sweeps
  //                         (exact, small graphs) or one "anf_round"
  //                         pass per ANF expansion round — true data
  //                         dependencies (round h reads round h-1).
  //   then    spectral      Lanczos / power iteration, one "spmv" pass
  //                         per matvec (iterative by nature).
  //
  // RNG order is unchanged from the unfused pipeline: the node-stats
  // pass draws nothing, so ANF → Lanczos → power-iteration consume the
  // stream exactly as before — outputs stay byte-identical.
  const std::vector<uint32_t>& degrees = node_stats.degrees;

  for (const auto& [degree, count] : DegreeHistogramFromDegrees(degrees)) {
    stats.degree_histogram.emplace_back(double(degree), double(count));
  }

  std::vector<uint64_t> hops;
  if (graph.NumNodes() <= options_.exact_hop_plot_limit) {
    hops = ExactHopPlot(graph);
  } else {
    AnfOptions anf;
    anf.num_trials = options_.anf_trials;
    hops = ApproxHopPlot(graph, rng, anf);
  }
  stats.hop_plot.assign(hops.begin(), hops.end());

  const uint32_t k_singular =
      std::min(options_.num_singular_values, graph.NumNodes());
  if (k_singular > 0 && graph.NumEdges() > 0) {
    stats.scree = TopSingularValues(graph, k_singular, rng);
  }

  if (graph.NumEdges() > 0) {
    stats.network_value = NetworkValue(graph, rng);
    if (stats.network_value.size() > options_.num_network_values) {
      stats.network_value.resize(options_.num_network_values);
    }
  }

  for (const auto& [degree, cc] :
       ClusteringByDegreeFromParts(degrees, node_stats.triangles)) {
    stats.clustering_by_degree.emplace_back(double(degree), cc);
  }
  return stats;
}

namespace {

// Averages positional series, padding shorter ones with their last value.
std::vector<double> AveragePositional(
    const std::vector<std::vector<double>>& series) {
  size_t longest = 0;
  for (const auto& s : series) longest = std::max(longest, s.size());
  std::vector<double> mean(longest, 0.0);
  if (series.empty()) return mean;
  for (const auto& s : series) {
    for (size_t i = 0; i < longest; ++i) {
      const double value = s.empty() ? 0.0 : (i < s.size() ? s[i] : s.back());
      mean[i] += value;
    }
  }
  for (double& value : mean) value /= double(series.size());
  return mean;
}

}  // namespace

GraphStatistics ReleasePipeline::Expected(const Initiator2& theta, uint32_t k,
                                          uint32_t realizations,
                                          Rng& rng) const {
  DPKRON_CHECK_GE(realizations, 1u);

  // The parent stream is split BEFORE the cache lookup and regardless of
  // its outcome, so `rng` advances identically on hit and miss — the
  // expected table is a pure function of (θ, k, R, options, parent
  // state), which is exactly the cache key.
  const CacheKey key = CacheKey()
                           .MixDouble(theta.a)
                           .MixDouble(theta.b)
                           .MixDouble(theta.c)
                           .Mix(k)
                           .Mix(realizations)
                           .Mix(options_.num_singular_values)
                           .Mix(options_.num_network_values)
                           .Mix(options_.exact_hop_plot_limit)
                           .Mix(options_.anf_trials)
                           .Mix(rng.StateFingerprint());
  std::vector<Rng> streams = SplitRngStreams(rng, realizations);
  return *StatCache::Instance().Memoize(kExpectedDomain, key, [&] {
    return ExpectedImpl(theta, k, realizations, streams);
  });
}

GraphStatistics ReleasePipeline::ExpectedImpl(const Initiator2& theta,
                                              uint32_t k,
                                              uint32_t realizations,
                                              std::vector<Rng>& streams) const {
  // Fan the realizations across the pool: stream r drives realization r
  // end to end (sample + statistics), so each per-realization result is a
  // pure function of (θ, k, options, stream r) and the grain-1 chunk
  // decomposition depends only on `realizations` — never on the thread
  // count. The statistics kernels inside each realization degrade to
  // serial execution when nested in a pool worker, which by the parallel.h
  // contract computes the same values they would in parallel.
  std::vector<GraphStatistics> per_realization(realizations);
  ParallelForChunks(realizations, 1, [&](const ParallelChunk& chunk) {
    for (size_t r = chunk.begin; r < chunk.end; ++r) {
      const Graph sample = Sample(theta, k, streams[r]);
      // Fresh node stats: the whole Expected table is cached as one
      // entry, so memoizing a realization's one-off sample would only
      // fill the memo with unreusable entries.
      per_realization[r] =
          ComputeImpl(sample, ComputeNodeStats(sample), streams[r]);
    }
  });

  // Aggregate in realization order — the chunk-ordered reduction that
  // makes the floating-point mean thread-count-invariant.
  // Degree histogram: mean count per degree. Clustering: mean of per-
  // realization degree-averages, tracked with how many realizations had
  // that degree present.
  std::map<double, double> histogram_sum;
  std::map<double, std::pair<double, uint32_t>> clustering_sum;
  std::vector<std::vector<double>> hop_series, scree_series, netval_series;
  for (GraphStatistics& stats : per_realization) {
    for (const auto& [degree, count] : stats.degree_histogram) {
      histogram_sum[degree] += count;
    }
    for (const auto& [degree, cc] : stats.clustering_by_degree) {
      auto& [sum, count] = clustering_sum[degree];
      sum += cc;
      ++count;
    }
    hop_series.push_back(std::move(stats.hop_plot));
    scree_series.push_back(std::move(stats.scree));
    netval_series.push_back(std::move(stats.network_value));
  }

  GraphStatistics mean;
  for (const auto& [degree, total] : histogram_sum) {
    mean.degree_histogram.emplace_back(degree, total / realizations);
  }
  for (const auto& [degree, entry] : clustering_sum) {
    mean.clustering_by_degree.emplace_back(degree,
                                           entry.first / entry.second);
  }
  mean.hop_plot = AveragePositional(hop_series);
  mean.scree = AveragePositional(scree_series);
  mean.network_value = AveragePositional(netval_series);
  return mean;
}

GraphStatistics ReleasePipeline::ComputeEphemeral(GraphView graph,
                                                  Rng& rng) const {
  return ComputeImpl(graph, ComputeNodeStats(graph), rng);
}

GraphStatistics ReleasePipeline::ExpectedEphemeral(const Initiator2& theta,
                                                   uint32_t k,
                                                   uint32_t realizations,
                                                   Rng& rng) const {
  DPKRON_CHECK_GE(realizations, 1u);
  std::vector<Rng> streams = SplitRngStreams(rng, realizations);
  return ExpectedImpl(theta, k, realizations, streams);
}

Graph ReleasePipeline::Sample(const Initiator2& theta, uint32_t k,
                              Rng& rng) const {
  return SampleSkg(theta, k, rng, {SkgSampleMethod::kClassSkip});
}

}  // namespace dpkron
