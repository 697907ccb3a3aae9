// Degree-based statistics over a materialized degree vector (a graph's
// node stats, graph/node_stats.h, or Algorithm 1's noisy release): the
// degree histogram and the degree-derived feature counts (edges E,
// hairpins H, tripins T) used by the moment estimator (paper §3.4 / §4.1).
// No function here walks a graph; the one pass that reads the degrees
// off the CSR is ComputeNodeStats.

#ifndef DPKRON_GRAPH_DEGREE_H_
#define DPKRON_GRAPH_DEGREE_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace dpkron {

// (degree, count) pairs for every degree value with count > 0, ascending —
// the "degree distribution" panels of Figs 1–4 — from a materialized
// degree vector (a graph's node stats), so one pass feeds several panels.
std::vector<std::pair<uint32_t, uint64_t>> DegreeHistogramFromDegrees(
    const std::vector<uint32_t>& degrees);

// Degree-derived features, computed from any degree vector d:
//   E = (1/2) Σ d_i            (number of edges)
//   H = (1/2) Σ d_i (d_i − 1)  (hairpins / wedges / 2-stars)
//   T = (1/6) Σ d_i (d_i −1)(d_i − 2)   (tripins / 3-stars)
// These are the formulas Algorithm 1 applies to the *noisy* degree vector;
// on real degree vectors they coincide with the combinatorial counts
// (whose integer-exact form is FeaturesFromNodeStats, estimation/
// features.h). Declared on doubles so they accept privatized
// (fractional) degrees.
double EdgesFromDegrees(const std::vector<double>& degrees);
double HairpinsFromDegrees(const std::vector<double>& degrees);
double TripinsFromDegrees(const std::vector<double>& degrees);

}  // namespace dpkron

#endif  // DPKRON_GRAPH_DEGREE_H_
