// Triangle primitives: the (degree, id)-rank forward orientation and
// its per-node intersection kernel, which ComputeNodeStats
// (graph/node_stats.h) runs as the triangle half of its one pass.
//
// Node-iterator over sorted adjacency lists restricted to higher-rank
// "forward" neighbors (the compact-forward algorithm): O(m^{3/2}) worst
// case, exact, no hashing. Whole-graph counts (t_u, Δ = Σ t_u / 3) are
// read from a NodeStats, never from a walker of their own.

#ifndef DPKRON_GRAPH_TRIANGLES_H_
#define DPKRON_GRAPH_TRIANGLES_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph_view.h"

namespace dpkron {

namespace internal {

// The (degree, id)-rank forward orientation in compact CSR form. Once
// built, the intersections read only these arrays — never the view
// again — which is what lets the fused node-stats kernel charge the
// whole triangle family to a single pass over the backing store.
struct ForwardCsr {
  std::vector<uint32_t> offsets;       // n+1
  std::vector<Graph::NodeId> targets;  // concatenated forward lists
};

// Builds the forward orientation with a SINGLE sweep of the view's
// adjacency (forward targets into a flat array laid out like the view's
// rows, then an in-RAM compaction), writing the
// degree vector into *degrees from the same traversal.
ForwardCsr BuildForwardCsrFused(GraphView graph,
                                std::vector<uint32_t>* degrees);

// t_u = number of triangles through node u (Σ_u t_u = 3∆), from a
// prebuilt forward orientation (AVX2-dispatched; scalar and AVX2 agree
// exactly — integer counts of the same triangle set).
std::vector<uint64_t> PerNodeTrianglesFromForward(const ForwardCsr& fwd,
                                                  uint32_t num_nodes);

}  // namespace internal

}  // namespace dpkron

#endif  // DPKRON_GRAPH_TRIANGLES_H_
