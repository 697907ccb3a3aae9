// Clustering coefficients from a graph's per-node degrees d_u and
// triangle counts t_u (its NodeStats, graph/node_stats.h):
// c_u = 2·t_u / (d_u (d_u − 1)) for d_u ≥ 2. No function here walks a
// graph; the one pass that produces d_u and t_u is ComputeNodeStats.
//
// The "clustering" panels of Figs 1–4 plot the average clustering
// coefficient of degree-d nodes against d (log-log), the convention of
// Leskovec et al.'s Kronecker-graph evaluations.

#ifndef DPKRON_GRAPH_CLUSTERING_H_
#define DPKRON_GRAPH_CLUSTERING_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace dpkron {

// Mean of c_u over all nodes with degree ≥ 2 (0 when there are none).
double AverageClusteringFromParts(const std::vector<uint32_t>& degrees,
                                  const std::vector<uint64_t>& triangles);

// (degree d, mean clustering of degree-d nodes) for every d ≥ 2 present,
// ascending.
std::vector<std::pair<uint32_t, double>> ClusteringByDegreeFromParts(
    const std::vector<uint32_t>& degrees,
    const std::vector<uint64_t>& triangles);

}  // namespace dpkron

#endif  // DPKRON_GRAPH_CLUSTERING_H_
