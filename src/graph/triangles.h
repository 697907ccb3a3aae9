// Exact triangle counting.
//
// Node-iterator over sorted adjacency lists restricted to higher-degree
// "forward" neighbors (the compact-forward algorithm): O(m^{3/2}) worst
// case, exact, no hashing. Also provides per-node and per-edge triangle
// counts — the latter feed the smooth-sensitivity computation (number of
// common neighbors a_ij, NRS'07).

#ifndef DPKRON_GRAPH_TRIANGLES_H_
#define DPKRON_GRAPH_TRIANGLES_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph_view.h"

namespace dpkron {

// Total number of triangles ∆(G).
uint64_t CountTriangles(GraphView graph);

// t_u = number of triangles through node u (Σ_u t_u = 3∆).
std::vector<uint64_t> PerNodeTriangles(GraphView graph);

// Number of common neighbors of u and v (= triangles through edge {u,v}
// when the edge exists, but defined for any pair). O(deg u + deg v).
uint32_t CommonNeighbors(GraphView graph, Graph::NodeId u,
                         Graph::NodeId v);

namespace internal {

// The (degree, id)-rank forward orientation in compact CSR form: the
// shared substrate of every triangle intersection path. Once built, the
// intersections read only these arrays — never the view again — which
// is what lets the fused node-stats kernel charge the whole triangle
// family to a single pass over the backing store.
struct ForwardCsr {
  std::vector<uint32_t> offsets;       // n+1
  std::vector<Graph::NodeId> targets;  // concatenated forward lists
};

// Builds the forward orientation with a SINGLE sweep of the view's
// adjacency (per-node lists, then an in-RAM flatten), emitting the
// degree vector from the same traversal when `degrees` is non-null.
ForwardCsr BuildForwardCsrFused(GraphView graph,
                                std::vector<uint32_t>* degrees);

// t_u from a prebuilt forward orientation (AVX2-dispatched; scalar and
// AVX2 agree exactly — integer counts of the same triangle set).
std::vector<uint64_t> PerNodeTrianglesFromForward(const ForwardCsr& fwd,
                                                  uint32_t num_nodes);

}  // namespace internal

}  // namespace dpkron

#endif  // DPKRON_GRAPH_TRIANGLES_H_
