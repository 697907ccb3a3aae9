#include "src/graph/extra_stats.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace dpkron {

double DegreeAssortativity(GraphView graph) {
  // Pearson correlation over the 2M ordered edge endpoints (x = deg u,
  // y = deg v); symmetric, so accumulate each undirected edge once with
  // both orientations folded in.
  double sum_x = 0.0, sum_xx = 0.0, sum_xy = 0.0;
  uint64_t samples = 0;
  graph.ForEachEdge([&](Graph::NodeId u, Graph::NodeId v) {
    const double du = graph.Degree(u), dv = graph.Degree(v);
    sum_x += du + dv;
    sum_xx += du * du + dv * dv;
    sum_xy += 2.0 * du * dv;
    samples += 2;
  });
  if (samples < 4) return 0.0;
  const double mean = sum_x / double(samples);
  const double var = sum_xx / double(samples) - mean * mean;
  if (var <= 1e-12) return 0.0;  // regular edge set: undefined, report 0
  const double cov = sum_xy / double(samples) - mean * mean;
  return cov / var;
}

std::vector<uint32_t> CoreNumbers(GraphView graph) {
  const uint32_t n = graph.NumNodes();
  std::vector<uint32_t> core(n);
  for (uint32_t u = 0; u < n; ++u) core[u] = graph.Degree(u);
  if (n == 0) return core;

  // Bucket sort nodes by current degree (classic Batagelj–Zaveršnik).
  const uint32_t max_degree = *std::max_element(core.begin(), core.end());
  std::vector<uint32_t> bucket_start(max_degree + 2, 0);
  for (uint32_t u = 0; u < n; ++u) ++bucket_start[core[u] + 1];
  for (uint32_t d = 1; d <= max_degree + 1; ++d) {
    bucket_start[d] += bucket_start[d - 1];
  }
  std::vector<uint32_t> order(n);       // nodes sorted by degree
  std::vector<uint32_t> position(n);    // node -> index in order
  {
    std::vector<uint32_t> cursor(bucket_start.begin(),
                                 bucket_start.end() - 1);
    for (uint32_t u = 0; u < n; ++u) {
      position[u] = cursor[core[u]];
      order[position[u]] = u;
      ++cursor[core[u]];
    }
  }

  std::vector<uint32_t> degree_of(core);  // working degrees
  for (uint32_t idx = 0; idx < n; ++idx) {
    const uint32_t u = order[idx];
    core[u] = degree_of[u];
    for (Graph::NodeId v : graph.Neighbors(u)) {
      if (degree_of[v] > degree_of[u]) {
        // Move v one bucket down: swap it with the first node of its
        // current bucket, then shrink the bucket boundary.
        const uint32_t dv = degree_of[v];
        const uint32_t first_idx = bucket_start[dv];
        const uint32_t first_node = order[first_idx];
        if (first_node != v) {
          std::swap(order[position[v]], order[first_idx]);
          std::swap(position[v], position[first_node]);
        }
        ++bucket_start[dv];
        --degree_of[v];
      }
    }
  }
  return core;
}

uint32_t Degeneracy(GraphView graph) {
  const std::vector<uint32_t> core = CoreNumbers(graph);
  uint32_t best = 0;
  for (uint32_t c : core) best = std::max(best, c);
  return best;
}

std::vector<std::pair<uint32_t, uint64_t>> CoreHistogram(GraphView graph) {
  std::map<uint32_t, uint64_t> counts;
  for (uint32_t c : CoreNumbers(graph)) ++counts[c];
  return {counts.begin(), counts.end()};
}

}  // namespace dpkron
