#include "src/graph/graph_builder.h"

#include <algorithm>

#include "src/common/macros.h"

namespace dpkron {

GraphBuilder::GraphBuilder(uint32_t num_nodes) : num_nodes_(num_nodes) {}

void GraphBuilder::AddEdge(Graph::NodeId u, Graph::NodeId v) {
  DPKRON_CHECK_LT(u, num_nodes_);
  DPKRON_CHECK_LT(v, num_nodes_);
  if (u == v) return;  // Simple graph: ignore loops at the door.
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::Build() {
  std::vector<uint64_t> keys;
  keys.reserve(edges_.size());
  for (const auto& [u, v] : edges_) {
    keys.push_back(PackEdge(u, v));
  }
  edges_.clear();
  return FromPackedEdges(num_nodes_, std::move(keys));
}

Graph GraphBuilder::FromEdges(
    uint32_t num_nodes,
    const std::vector<std::pair<Graph::NodeId, Graph::NodeId>>& edges) {
  GraphBuilder builder(num_nodes);
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  return builder.Build();
}

Graph GraphBuilder::FromPackedEdges(uint32_t num_nodes,
                                    std::vector<uint64_t> keys) {
  // The exact SKG sampler and in-order AddEdge calls arrive sorted.
  if (!std::is_sorted(keys.begin(), keys.end())) {
    std::sort(keys.begin(), keys.end());
  }
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<uint32_t> degree(num_nodes, 0);
  for (const uint64_t key : keys) {
    const auto u = static_cast<Graph::NodeId>(key >> 32);
    const auto v = static_cast<Graph::NodeId>(key);
    DPKRON_CHECK_LT(u, v);
    DPKRON_CHECK_LT(v, num_nodes);
    ++degree[u];
    ++degree[v];
  }
  // 64-byte-aligned CSR arenas (Graph::CsrVector): the contract the
  // SIMD kernels' aligned loads rely on.
  Graph::OffsetVector offsets(num_nodes + 1, 0);
  for (uint32_t u = 0; u < num_nodes; ++u) {
    offsets[u + 1] = offsets[u] + degree[u];
  }
  Graph::AdjacencyVector adjacency(offsets.back());
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  // Keys are sorted by (u, v), so filling forward keeps each adjacency
  // list sorted: u's list receives v's in increasing order, and v's list
  // receives u's in increasing order because keys are grouped by u.
  for (const uint64_t key : keys) {
    const auto u = static_cast<Graph::NodeId>(key >> 32);
    const auto v = static_cast<Graph::NodeId>(key);
    adjacency[cursor[u]++] = v;
    adjacency[cursor[v]++] = u;
  }
  return Graph::FromCsr(std::move(offsets), std::move(adjacency));
}

}  // namespace dpkron
