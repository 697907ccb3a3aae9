// Shared helpers for the dpkron test suite.

#ifndef DPKRON_TESTS_TEST_UTIL_H_
#define DPKRON_TESTS_TEST_UTIL_H_

#include <sys/stat.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/parallel.h"
#include "src/estimation/features.h"
#include "src/graph/graph.h"
#include "src/graph/graph_builder.h"
#include "src/graph/graph_view.h"
#include "src/graph/node_stats.h"

namespace dpkron::testing {

using EdgeList = std::vector<std::pair<Graph::NodeId, Graph::NodeId>>;

// Restores the ambient pool width on scope exit (thread-sweep tests).
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) : saved_(ParallelThreadCount()) {
    SetParallelThreadCount(threads);
  }
  ~ScopedThreads() { SetParallelThreadCount(saved_); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int saved_;
};

// Equal CSR arrays: the same graph, bit for bit, on any backing.
inline bool SameCsr(GraphView a, GraphView b) {
  return std::ranges::equal(a.Offsets(), b.Offsets()) &&
         std::ranges::equal(a.Adjacency(), b.Adjacency());
}

// The file's inode, 0 when it does not exist. A sidecar rebuild renames
// a new file into place, so an unchanged inode across a load shows the
// sidecar on disk served it.
inline ino_t FileInode(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
}

// The exact features E, H, ∆, T of `graph`, from its node stats.
inline GraphFeatures ExactFeatures(GraphView graph) {
  return FeaturesFromNodeStats(graph.NumEdges(), ComputeNodeStats(graph));
}

// Number of common neighbors of u and v (= triangles through edge {u,v}
// when the edge exists, but defined for any pair): a scalar merge of the
// two sorted rows, O(deg u + deg v). It shares no code with the library's
// triangle kernels, so it is an independent oracle for them.
inline uint32_t CommonNeighbors(GraphView graph, Graph::NodeId u,
                                Graph::NodeId v) {
  const auto nu = graph.Neighbors(u);
  const auto nv = graph.Neighbors(v);
  uint32_t common = 0;
  size_t i = 0, j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] < nv[j]) {
      ++i;
    } else if (nu[i] > nv[j]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

// t_u = Σ_{v ∈ N(u)} CommonNeighbors(u, v) / 2: each triangle through u
// is seen once from each of its two other corners. A merge over the raw
// adjacency that shares no code with the forward orientation behind
// ComputeNodeStats, so it is an independent oracle for it.
inline std::vector<uint64_t> PerNodeTrianglesByCommonNeighbors(
    GraphView graph) {
  std::vector<uint64_t> triangles(graph.NumNodes(), 0);
  for (Graph::NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (Graph::NodeId v : graph.Neighbors(u)) {
      triangles[u] += CommonNeighbors(graph, u, v);
    }
    triangles[u] /= 2;
  }
  return triangles;
}

inline Graph MakeGraph(uint32_t n, const EdgeList& edges) {
  return GraphBuilder::FromEdges(n, edges);
}

// Path 0-1-2-...-(n-1).
inline Graph PathGraph(uint32_t n) {
  EdgeList edges;
  for (uint32_t u = 0; u + 1 < n; ++u) edges.emplace_back(u, u + 1);
  return MakeGraph(n, edges);
}

// Cycle on n nodes.
inline Graph CycleGraph(uint32_t n) {
  EdgeList edges;
  for (uint32_t u = 0; u < n; ++u) edges.emplace_back(u, (u + 1) % n);
  return MakeGraph(n, edges);
}

// Complete graph K_n.
inline Graph CompleteGraph(uint32_t n) {
  EdgeList edges;
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return MakeGraph(n, edges);
}

// Star: center 0, leaves 1..n-1.
inline Graph StarGraph(uint32_t n) {
  EdgeList edges;
  for (uint32_t v = 1; v < n; ++v) edges.emplace_back(0u, v);
  return MakeGraph(n, edges);
}

// The Petersen graph (3-regular, 10 nodes, 15 edges, girth 5 → no
// triangles, 30 wedges).
inline Graph PetersenGraph() {
  return MakeGraph(10, {{0, 1},
                        {1, 2},
                        {2, 3},
                        {3, 4},
                        {4, 0},
                        {0, 5},
                        {1, 6},
                        {2, 7},
                        {3, 8},
                        {4, 9},
                        {5, 7},
                        {7, 9},
                        {9, 6},
                        {6, 8},
                        {8, 5}});
}

}  // namespace dpkron::testing

#endif  // DPKRON_TESTS_TEST_UTIL_H_
