// The determinism contract of src/common/parallel.h, enforced: every
// parallel kernel must produce identical results at 1, 2 and 8 threads.

#include "src/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/core/release.h"
#include "src/dp/smooth_sensitivity.h"
#include "src/estimation/features.h"
#include "src/graph/anf.h"
#include "src/graph/clustering.h"
#include "src/graph/graph.h"
#include "src/graph/node_stats.h"
#include "src/kronfit/kronfit.h"
#include "src/kronfit/likelihood.h"
#include "src/kronfit/permutation.h"
#include "src/linalg/lanczos.h"
#include "src/linalg/network_value.h"
#include "src/linalg/spmv.h"
#include "src/skg/sampler.h"

namespace dpkron {
namespace {

// Restores the ambient thread count when a test scope ends, so tests
// can't leak pool configuration into each other.
class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(int threads)
      : saved_(ParallelThreadCount()) {
    SetParallelThreadCount(threads);
  }
  ~ScopedThreadCount() { SetParallelThreadCount(saved_); }

 private:
  int saved_;
};

constexpr int kThreadCounts[] = {1, 2, 8};

// Runs `compute` once per thread count and requires all results equal.
template <typename Fn>
void ExpectThreadCountInvariant(Fn&& compute) {
  ScopedThreadCount guard(1);
  const auto reference = compute();
  for (int threads : {2, 8}) {
    SetParallelThreadCount(threads);
    EXPECT_EQ(compute(), reference) << "at " << threads << " threads";
  }
}

Graph SampleTestGraph() {
  Rng rng(20120330);
  return SampleSkg({0.95, 0.55, 0.3}, 9, rng);  // 512 nodes, exact sampler
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int threads : kThreadCounts) {
    ScopedThreadCount guard(threads);
    const size_t n = 10007;  // prime: chunks don't divide evenly
    std::vector<std::atomic<uint32_t>> hits(n);
    for (auto& h : hits) h.store(0);
    ParallelFor(n, 64, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
    }
  }
}

TEST(ParallelForTest, ChunkDecompositionIgnoresThreadCount) {
  EXPECT_EQ(ParallelChunkCount(0, 64), 0u);
  EXPECT_EQ(ParallelChunkCount(1, 64), 1u);
  EXPECT_EQ(ParallelChunkCount(64, 64), 1u);
  EXPECT_EQ(ParallelChunkCount(65, 64), 2u);
  EXPECT_EQ(ParallelChunkCount(100, 0), 100u);  // grain clamps to 1

  for (int threads : kThreadCounts) {
    ScopedThreadCount guard(threads);
    std::vector<std::pair<size_t, size_t>> ranges(ParallelChunkCount(1000, 96));
    ParallelForChunks(1000, 96, [&](const ParallelChunk& chunk) {
      ranges[chunk.index] = {chunk.begin, chunk.end};
      EXPECT_LT(chunk.worker, static_cast<size_t>(ParallelThreadCount()));
    });
    for (size_t c = 0; c < ranges.size(); ++c) {
      EXPECT_EQ(ranges[c].first, c * 96);
      EXPECT_EQ(ranges[c].second, std::min<size_t>(1000, c * 96 + 96));
    }
  }
}

TEST(ParallelForTest, NestedCallsRunSerially) {
  ScopedThreadCount guard(4);
  std::atomic<uint64_t> total{0};
  ParallelFor(16, 1, [&](size_t) {
    // Nested section must not deadlock on the pool.
    ParallelFor(100, 10, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 1600u);
}

TEST(ParallelSumTest, DeterministicAcrossThreadCounts) {
  // Pseudo-random doubles whose naive reordered sum would differ in the
  // low bits; the chunk-ordered reduction must not.
  Rng rng(99);
  std::vector<double> values(100000);
  for (double& v : values) v = rng.NextGaussian() * 1e6;
  ExpectThreadCountInvariant([&] {
    return ParallelSum(values.size(), 1024, [&](size_t begin, size_t end) {
      double s = 0.0;
      for (size_t i = begin; i < end; ++i) s += values[i];
      return s;
    });
  });
}

// dpkrond's request workers are plain std::threads sharing the one pool,
// so several sections can be in flight at once. Each caller must still
// run every one of its chunks exactly once and get its own chunk-ordered
// result, on 2-chunk and on 100-chunk sections.
TEST(ParallelTest, ConcurrentRunFromNonPoolThreads) {
  Rng rng(2718);
  std::vector<double> values(6400);
  for (double& v : values) v = rng.NextGaussian() * 1e6;
  const auto sum = [&](size_t grain) {
    return ParallelSum(values.size(), grain, [&](size_t begin, size_t end) {
      double s = 0.0;
      for (size_t i = begin; i < end; ++i) s += values[i];
      return s;
    });
  };
  // Per-chunk element counts: a chunk skipped, run twice, or run into
  // another caller's slots shows up as a wrong count.
  const auto chunk_sizes = [&](size_t grain) {
    std::vector<size_t> counts(ParallelChunkCount(values.size(), grain));
    ParallelForChunks(values.size(), grain, [&](const ParallelChunk& chunk) {
      counts[chunk.index] += chunk.end - chunk.begin;
    });
    return counts;
  };
  constexpr size_t kGrains[] = {3200, 64};  // 2 and 100 chunks
  std::vector<double> sum_ref;
  std::vector<std::vector<size_t>> chunk_sizes_ref;
  {
    ScopedThreadCount serial(1);
    for (size_t grain : kGrains) {
      sum_ref.push_back(sum(grain));
      chunk_sizes_ref.push_back(chunk_sizes(grain));
    }
  }
  ScopedThreadCount guard(4);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int caller = 0; caller < 4; ++caller) {
    callers.emplace_back([&] {
      for (int round = 0; round < 200; ++round) {
        for (size_t g = 0; g < std::size(kGrains); ++g) {
          if (sum(kGrains[g]) != sum_ref[g]) ++mismatches;
          if (chunk_sizes(kGrains[g]) != chunk_sizes_ref[g]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Workers spawned by a resize must join the very next section, even
// when they first run after it started. Each of the 4 chunks waits
// (boundedly) until all 4 have started, which only happens when 4
// distinct workers run them at once.
TEST(ParallelTest, FirstSectionAfterResizeReachesEveryWorker) {
  ScopedThreadCount guard(1);
  SetParallelThreadCount(4);
  std::atomic<int> started{0};
  std::atomic<int> saw_all{0};
  std::vector<size_t> workers(4);
  ParallelForChunks(4, 1, [&](const ParallelChunk& chunk) {
    workers[chunk.index] = chunk.worker;
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (started.load() < 4 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (started.load() == 4) saw_all.fetch_add(1);
  });
  // A chunk that gave up at the deadline is not counted.
  EXPECT_EQ(saw_all.load(), 4);
  std::sort(workers.begin(), workers.end());
  EXPECT_EQ(std::unique(workers.begin(), workers.end()) - workers.begin(), 4);
}

TEST(SplitRngStreamsTest, DeterministicAndDistinct) {
  Rng a(7), b(7);
  std::vector<Rng> sa = SplitRngStreams(a, 8);
  std::vector<Rng> sb = SplitRngStreams(b, 8);
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].NextU64(), sb[i].NextU64()) << "stream " << i;
  }
  // First outputs across streams should all differ.
  std::vector<uint64_t> firsts;
  for (Rng& stream : sa) firsts.push_back(stream.NextU64());
  std::sort(firsts.begin(), firsts.end());
  EXPECT_EQ(std::unique(firsts.begin(), firsts.end()), firsts.end());
}

// The placement rule: chains and chunks write their stream on every
// draw, so no two streams may share a 64-byte line.
TEST(SplitRngStreamsTest, StreamsOccupyDistinctCacheLines) {
  static_assert(alignof(Rng) >= 64);
  Rng parent(11);
  const std::vector<Rng> streams = SplitRngStreams(parent, 8);
  std::vector<uintptr_t> lines;
  for (const Rng& stream : streams) {
    const auto first = reinterpret_cast<uintptr_t>(&stream);
    const uintptr_t last = first + sizeof(Rng) - 1;
    EXPECT_EQ(first % 64, 0u);
    for (uintptr_t line = first / 64; line <= last / 64; ++line) {
      lines.push_back(line);
    }
  }
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(std::unique(lines.begin(), lines.end()), lines.end());
}

// ------------------- kernel thread-count invariance -------------------

TEST(KernelInvarianceTest, Triangles) {
  const Graph g = SampleTestGraph();
  ExpectThreadCountInvariant([&] { return ComputeNodeStats(g).triangles; });
  ExpectThreadCountInvariant(
      [&] { return TotalTriangles(ComputeNodeStats(g)); });
}

TEST(KernelInvarianceTest, DegreeKernels) {
  const Graph g = SampleTestGraph();
  ExpectThreadCountInvariant([&] { return ComputeNodeStats(g).degrees; });
  ExpectThreadCountInvariant([&] { return ComputeNodeStats(g); });
  ExpectThreadCountInvariant([&] {
    const GraphFeatures f =
        FeaturesFromNodeStats(g.NumEdges(), ComputeNodeStats(g));
    return std::vector<double>{f.edges, f.hairpins, f.triangles, f.tripins};
  });
}

TEST(KernelInvarianceTest, Clustering) {
  const Graph g = SampleTestGraph();
  // Doubles compared bit-exactly: the chunk-ordered reduction promises
  // identical floating-point results, not merely close ones. The stats
  // are recomputed at each width, so the pass is covered too.
  ExpectThreadCountInvariant([&] {
    const NodeStats stats = ComputeNodeStats(g);
    return AverageClusteringFromParts(stats.degrees, stats.triangles);
  });
  ExpectThreadCountInvariant([&] {
    const NodeStats stats = ComputeNodeStats(g);
    return ClusteringByDegreeFromParts(stats.degrees, stats.triangles);
  });
}

TEST(KernelInvarianceTest, Anf) {
  const Graph g = SampleTestGraph();
  ExpectThreadCountInvariant([&] {
    Rng rng(4242);  // same seed per thread count — sketches must match
    AnfOptions options;
    options.num_trials = 16;
    return ApproxHopPlot(g, rng, options);
  });
}

TEST(KernelInvarianceTest, SpmvAndDot) {
  const Graph g = SampleTestGraph();
  Rng rng(17);
  std::vector<double> x(g.NumNodes());
  for (double& v : x) v = rng.NextGaussian();
  ExpectThreadCountInvariant([&] {
    std::vector<double> y(g.NumNodes());
    AdjacencyMatVec(g, x, &y);
    return y;
  });
  ExpectThreadCountInvariant([&] { return Dot(x, x); });
  ExpectThreadCountInvariant([&] { return Norm2(x); });
}

// Lanczos and power iteration call Dot/Axpy/Scale thousands of times.
// Below kMinParallelVector nodes those run their chunks on the caller,
// above it on the pool; the chunking, and so every bit, is the same.
TEST(KernelInvarianceTest, LanczosBothSidesOfTheInlineThreshold) {
  const uint32_t log2_threshold = std::bit_width(kMinParallelVector) - 1;
  ASSERT_EQ(size_t{1} << log2_threshold, kMinParallelVector);
  SkgSampleOptions sample_options;
  sample_options.method = SkgSampleMethod::kEdgeSkip;
  for (const uint32_t k : {log2_threshold - 1, log2_threshold + 1}) {
    Rng sample_rng(k);
    const Graph g = SampleSkg({0.9, 0.5, 0.2}, k, sample_rng, sample_options);
    ASSERT_EQ(g.NumNodes(), size_t{1} << k);
    ASSERT_GE(g.NumNodes(), 3 * 8192u);  // several chunks even inline
    ExpectThreadCountInvariant([&] {
      Rng rng(31);
      return TopSingularValues(g, 4, rng);
    });
    ExpectThreadCountInvariant([&] {
      Rng rng(32);
      return NetworkValue(g, rng);
    });
  }
}

TEST(KernelInvarianceTest, ParallelSumArray) {
  Rng rng(321);
  std::vector<std::array<double, 3>> values(50000);
  for (auto& v : values) {
    for (double& x : v) x = rng.NextGaussian() * 1e6;
  }
  ExpectThreadCountInvariant([&] {
    return ParallelSumArray<3>(values.size(), 512,
                               [&](size_t begin, size_t end) {
                                 std::array<double, 3> s{};
                                 for (size_t i = begin; i < end; ++i) {
                                   for (int j = 0; j < 3; ++j) {
                                     s[j] += values[i][j];
                                   }
                                 }
                                 return s;
                               });
  });
}

TEST(KernelInvarianceTest, KronFitLikelihoodKernels) {
  const Graph g = SampleTestGraph();
  const KronFitLikelihood model({0.9, 0.55, 0.25}, 9);
  const PermutationState sigma = DegreeGuidedInit(g, 9);
  // Doubles compared bit-exactly, as everywhere in this file.
  ExpectThreadCountInvariant([&] { return model.LogLikelihood(g, sigma); });
  ExpectThreadCountInvariant([&] { return model.EdgeGradient(g, sigma); });
}

TEST(KernelInvarianceTest, MetropolisChainsSampleGradient) {
  const Graph g = SampleTestGraph();
  const KronFitLikelihood model({0.9, 0.55, 0.25}, 9);
  ExpectThreadCountInvariant([&] {
    Rng rng(2024);
    MetropolisChains chains(g, 9, 4, rng);
    const Gradient3 g1 = chains.SampleGradient(model, 2 * g.NumNodes());
    const Gradient3 g2 = chains.SampleGradient(model, 2 * g.NumNodes());
    return std::array<double, 7>{g1[0], g1[1], g1[2], g2[0],
                                 g2[1], g2[2],
                                 chains.BestLogLikelihood(model)};
  });
}

// The PR 2 acceptance bar: the full fit — multi-chain Metropolis,
// table-driven likelihood, chunk-ordered reductions — must produce a
// bit-identical KronFitResult at 1, 2 and 8 threads.
TEST(KernelInvarianceTest, FitKronFit) {
  Rng g_rng(606);
  const Graph g = SampleSkg({0.9, 0.5, 0.2}, 8, g_rng);
  KronFitOptions options;
  options.iterations = 8;
  ExpectThreadCountInvariant([&] {
    Rng rng(42);
    const KronFitResult fit = FitKronFit(g, rng, options);
    return std::array<double, 4>{fit.theta.a, fit.theta.b, fit.theta.c,
                                 fit.log_likelihood};
  });
}

TEST(KernelInvarianceTest, TriangleSensitivityProfile) {
  const Graph g = SampleTestGraph();
  ExpectThreadCountInvariant([&] {
    const TriangleSensitivityProfile profile(g);
    return profile.frontier();
  });
  ExpectThreadCountInvariant([&] {
    return TriangleSensitivityProfile(g).SmoothSensitivity(0.05);
  });
}

TEST(KernelInvarianceTest, EdgeSkipSampler) {
  SkgSampleOptions options;
  options.method = SkgSampleMethod::kEdgeSkip;
  ExpectThreadCountInvariant([&] {
    Rng rng(555);
    return SampleSkg({0.95, 0.55, 0.3}, 12, rng, options).Edges();
  });
}

// The parallel release pipeline: realizations fan out across the pool on
// per-realization Rng::Split streams with realization-ordered
// aggregation, so the 5-panel mean must be bit-identical at 1/2/8
// threads.
TEST(KernelInvarianceTest, ExpectedStatistics) {
  StatisticsOptions options;
  options.num_singular_values = 8;
  options.anf_trials = 8;
  ExpectThreadCountInvariant([&] {
    Rng rng(20120330);
    return ReleasePipeline(options).Expected({0.9, 0.5, 0.2}, 8, 6, rng);
  });
}

}  // namespace
}  // namespace dpkron
