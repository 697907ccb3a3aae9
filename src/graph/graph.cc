#include "src/graph/graph.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "src/common/macros.h"
#include "src/common/parallel.h"
#include "src/graph/graph_view.h"

namespace dpkron {

namespace {

// The first CSR invariant node u breaks, or nullptr. Reads only u's own
// offsets and row, so nodes can be checked in any order.
const char* NodeDefect(std::span<const uint32_t> offsets,
                       std::span<const Graph::NodeId> adjacency, uint32_t n,
                       uint32_t u) {
  const uint32_t begin = offsets[u];
  const uint32_t end = offsets[u + 1];
  if (begin > end) return "offsets not monotone";
  // A raised interior offset must not index past the adjacency before
  // the descent back to offsets.back() shows it.
  if (end > adjacency.size()) return "offsets out of range";
  for (uint32_t i = begin; i < end; ++i) {
    const Graph::NodeId v = adjacency[i];
    if (v >= n) return "neighbour out of range";
    if (v == u) return "self-loop";
    if (i > begin && adjacency[i - 1] >= v) {
      return "adjacency not strictly sorted";
    }
  }
  return nullptr;
}

}  // namespace

Status ValidateCsrSpans(std::span<const uint32_t> offsets,
                        std::span<const Graph::NodeId> adjacency) {
  // offsets.size() - 1 must fit the uint32 node count, and the final
  // offset (itself a uint32) bounds the adjacency length.
  if (offsets.empty() ||
      offsets.size() > std::numeric_limits<uint32_t>::max() ||
      offsets.front() != 0 || offsets.back() != adjacency.size() ||
      adjacency.size() % 2 != 0) {
    return Status::InvalidArgument(
        "CSR offsets do not run from 0 to an even adjacency length");
  }
  const uint32_t n = static_cast<uint32_t>(offsets.size() - 1);
  // Node chunks are checked on the pool; each keeps its first failing
  // node (n = none), and the lowest one is reported, so the message is
  // the one a serial scan from node 0 would give.
  constexpr size_t kNodeGrain = 4096;
  std::vector<uint32_t> first_failing(ParallelChunkCount(n, kNodeGrain), n);
  ParallelForChunks(n, kNodeGrain, [&](const ParallelChunk& chunk) {
    for (size_t u = chunk.begin; u < chunk.end; ++u) {
      if (NodeDefect(offsets, adjacency, n, static_cast<uint32_t>(u)) !=
          nullptr) {
        first_failing[chunk.index] = static_cast<uint32_t>(u);
        return;
      }
    }
  });
  for (const uint32_t u : first_failing) {
    if (u == n) continue;
    return Status::InvalidArgument(
        std::string("CSR ") + NodeDefect(offsets, adjacency, n, u) +
        " at node " + std::to_string(u));
  }
  return Status::Ok();
}

Result<Graph> Graph::FromCsr(OffsetVector offsets, AdjacencyVector adjacency) {
  if (Status status = ValidateCsrSpans(offsets, adjacency); !status.ok()) {
    return status;
  }
  return Graph(std::move(offsets), std::move(adjacency));
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  DPKRON_CHECK_LT(u, NumNodes());
  DPKRON_CHECK_LT(v, NumNodes());
  const auto neighbors = Neighbors(u);
  return std::binary_search(neighbors.begin(), neighbors.end(), v);
}

uint64_t Graph::ContentFingerprint() const {
  const uint64_t cached = fingerprint_.load(std::memory_order_relaxed);
  if (cached != 0) return cached;
  // Same formula as the .dpkb payload checksum (graph_io.cc): shared
  // with GraphView so every backing of the same CSR bytes agrees.
  const uint64_t hash = CsrContentFingerprint(offsets_, adjacency_);
  fingerprint_.store(hash, std::memory_order_relaxed);
  return hash;
}

std::vector<std::pair<Graph::NodeId, Graph::NodeId>> Graph::Edges() const {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(NumEdges());
  ForEachEdge([&edges](NodeId u, NodeId v) { edges.emplace_back(u, v); });
  return edges;
}

}  // namespace dpkron
