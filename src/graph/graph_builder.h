// Mutable edge accumulator that produces validated Graph objects.
//
// Accepts edges in any order, with duplicates, reversed duplicates and
// self-loops; Build() canonicalizes (drops loops, dedupes, sorts) so the
// resulting Graph satisfies the CSR invariants. This is also where the
// paper's §3.2 "symmetrize and drop loops" transformation of directed SKG
// realizations lands: the sampler just feeds every realized arc in here.

#ifndef DPKRON_GRAPH_GRAPH_BUILDER_H_
#define DPKRON_GRAPH_GRAPH_BUILDER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/graph.h"

namespace dpkron {

class GraphBuilder {
 public:
  // Creates a builder for a graph on `num_nodes` nodes (fixed up front:
  // SKG graphs have exactly N1^k nodes whether or not all are touched).
  explicit GraphBuilder(uint32_t num_nodes);

  uint32_t num_nodes() const { return num_nodes_; }

  // Records an undirected edge {u, v}. Self-loops and duplicates are
  // accepted and removed at Build(). Aborts if u or v is out of range.
  void AddEdge(Graph::NodeId u, Graph::NodeId v);

  // The packed key (u << 32) | v of edge {u, v}, u < v: the format
  // FromPackedEdges takes.
  static uint64_t PackEdge(Graph::NodeId u, Graph::NodeId v) {
    return (uint64_t{u} << 32) | v;
  }

  // Number of AddEdge calls so far (pre-dedup).
  size_t PendingEdges() const { return edges_.size(); }

  // Canonicalizes and produces the Graph. The builder is left empty and
  // reusable for the same node count.
  Graph Build();

  // Convenience: one-shot construction from an edge list.
  static Graph FromEdges(
      uint32_t num_nodes,
      const std::vector<std::pair<Graph::NodeId, Graph::NodeId>>& edges);

  // Builds directly from packed 64-bit edge keys (u << 32) | v with
  // u < v < num_nodes — the representation the samplers and the edge-list
  // parser produce; every Graph the program builds comes through here.
  // Takes ownership, in any order: duplicates (including across merged
  // batches) are fine, self-loops and out-of-range ids abort. Unsorted
  // keys get a parallel LSD radix sort over only the bits a node id can
  // set, then unique; a transposed copy radix-sorted by (v, u) gives
  // every row its neighbors below it, and rows fill in parallel as that
  // span followed by the row's own keys. The CSR is a pure function of
  // the key set: the same at any thread count and for any key order.
  static Graph FromPackedEdges(uint32_t num_nodes,
                               std::vector<uint64_t> keys);

 private:
  uint32_t num_nodes_;
  std::vector<std::pair<Graph::NodeId, Graph::NodeId>> edges_;
};

}  // namespace dpkron

#endif  // DPKRON_GRAPH_GRAPH_BUILDER_H_
