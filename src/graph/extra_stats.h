// Additional whole-graph statistics from the Kronecker-graphs evaluation
// toolbox: degree assortativity and k-core decomposition. (Node triangle
// participation, which the paper names in §3.1's list of studied
// patterns, is NodeStats::triangles in node_stats.h.)

#ifndef DPKRON_GRAPH_EXTRA_STATS_H_
#define DPKRON_GRAPH_EXTRA_STATS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/graph_view.h"

namespace dpkron {

// Pearson correlation of endpoint degrees over edges (Newman's degree
// assortativity, in [−1, 1]). Returns 0 for graphs with < 2 edges or a
// degree-regular edge set (undefined correlation).
double DegreeAssortativity(GraphView graph);

// Core number of every node (largest k such that the node survives in
// the k-core). O(N + M) bucket peeling.
std::vector<uint32_t> CoreNumbers(GraphView graph);

// Largest non-empty core index (0 for edgeless graphs).
uint32_t Degeneracy(GraphView graph);

// (k, number of nodes with core number exactly k), ascending k.
std::vector<std::pair<uint32_t, uint64_t>> CoreHistogram(GraphView graph);

}  // namespace dpkron

#endif  // DPKRON_GRAPH_EXTRA_STATS_H_
