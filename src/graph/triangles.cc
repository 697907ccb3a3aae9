#include "src/graph/triangles.h"

#include <algorithm>
#include <memory>
#include <span>

#include "src/common/parallel.h"
#include "src/common/simd.h"
#include "src/graph/intersect_kernels.h"

namespace dpkron {
namespace {

using internal::ForwardCsr;

// Rank nodes by (degree, id); orienting every edge from lower to higher
// rank makes each triangle counted exactly once and bounds the forward
// out-degree by O(sqrt(m)).
struct RankOrder {
  GraphView graph;
  bool Less(Graph::NodeId a, Graph::NodeId b) const {
    const uint32_t da = graph.Degree(a), db = graph.Degree(b);
    return da != db ? da < db : a < b;
  }
};

// Chunk size for the enumeration loops: small, because hub nodes make
// per-node work heavily skewed and the pool's dynamic chunk claiming is
// the load balancer.
constexpr size_t kNodeGrain = 64;

}  // namespace

namespace internal {

ForwardCsr BuildForwardCsrFused(GraphView graph,
                                std::vector<uint32_t>* degrees) {
  const RankOrder rank{graph};
  const uint32_t n = graph.NumNodes();
  degrees->resize(n);
  // Single sweep of the view's adjacency: each node's forward targets
  // (a subset of its row) go to the start of that row's span in one
  // flat array laid out like the view's offsets, and the degree vector
  // falls out of the same traversal. The compaction below touches only
  // that in-RAM array — an out-of-core backing's pages are read once.
  const std::span<const uint32_t> row = graph.Offsets();
  const auto spans = std::make_unique_for_overwrite<Graph::NodeId[]>(row[n]);
  ForwardCsr fwd;
  fwd.offsets.assign(size_t{n} + 1, 0);
  ParallelFor(n, kNodeGrain, [&](size_t u_index) {
    const auto u = static_cast<Graph::NodeId>(u_index);
    (*degrees)[u_index] = graph.Degree(u);
    Graph::NodeId* out = spans.get() + row[u_index];
    for (Graph::NodeId v : graph.Neighbors(u)) {
      if (rank.Less(u, v)) *out++ = v;
    }
    fwd.offsets[u_index + 1] =
        static_cast<uint32_t>(out - (spans.get() + row[u_index]));
  });
  for (uint32_t u = 0; u < n; ++u) fwd.offsets[u + 1] += fwd.offsets[u];
  fwd.targets.resize(fwd.offsets[n]);
  ParallelFor(n, 4096, [&](size_t u_index) {
    const Graph::NodeId* first = spans.get() + row[u_index];
    std::copy(first, first + (fwd.offsets[u_index + 1] - fwd.offsets[u_index]),
              fwd.targets.begin() + fwd.offsets[u_index]);
  });
  return fwd;
}

std::vector<uint64_t> PerNodeTrianglesFromForward(const ForwardCsr& fwd,
                                                  uint32_t num_nodes) {
  const size_t n = num_nodes;
  // A triangle increments all three of its corners, which live in
  // arbitrary chunks — so accumulate into per-worker arrays. Integer
  // addition commutes, so the merged totals are thread-count-invariant
  // even though worker→chunk assignment is not.
  std::vector<std::vector<uint64_t>> locals(
      static_cast<size_t>(ParallelThreadCount()));
  if (Avx2Active()) {
    // Per-worker scratch for intersection outputs, sized to the longest
    // forward list (allocated lazily per worker, like `locals`).
    std::vector<std::vector<Graph::NodeId>> scratch(locals.size());
    uint32_t max_forward = 0;
    for (size_t u = 0; u < n; ++u) {
      max_forward =
          std::max(max_forward, fwd.offsets[u + 1] - fwd.offsets[u]);
    }
    ParallelForChunks(n, kNodeGrain, [&](const ParallelChunk& chunk) {
      auto& local = locals[chunk.worker];
      if (local.empty()) local.assign(n, 0);
      auto& buffer = scratch[chunk.worker];
      if (buffer.size() < max_forward) buffer.resize(max_forward);
      PerNodeTrianglesChunkAvx2(fwd.offsets.data(), fwd.targets.data(),
                                chunk.begin, chunk.end, local.data(),
                                buffer.data());
    });
  } else {
    ParallelForChunks(n, kNodeGrain, [&](const ParallelChunk& chunk) {
      auto& local = locals[chunk.worker];
      if (local.empty()) local.assign(n, 0);
      for (size_t u = chunk.begin; u < chunk.end; ++u) {
        const uint32_t fu_begin = fwd.offsets[u], fu_end = fwd.offsets[u + 1];
        for (uint32_t vi = fu_begin; vi < fu_end; ++vi) {
          const Graph::NodeId v = fwd.targets[vi];
          uint32_t i = fu_begin, j = fwd.offsets[v];
          const uint32_t j_end = fwd.offsets[v + 1];
          while (i < fu_end && j < j_end) {
            if (fwd.targets[i] < fwd.targets[j]) {
              ++i;
            } else if (fwd.targets[i] > fwd.targets[j]) {
              ++j;
            } else {
              ++local[u];
              ++local[v];
              ++local[fwd.targets[i]];
              ++i;
              ++j;
            }
          }
        }
      }
    });
  }
  std::vector<uint64_t> per_node(n, 0);
  ParallelFor(n, 4096, [&](size_t u) {
    uint64_t total = 0;
    for (const auto& local : locals) {
      if (!local.empty()) total += local[u];
    }
    per_node[u] = total;
  });
  return per_node;
}

}  // namespace internal

}  // namespace dpkron
