#include "src/linalg/network_value.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "src/common/macros.h"
#include "src/linalg/spmv.h"

namespace dpkron {

PowerIterationResult PrincipalEigenvector(GraphView graph, Rng& rng,
                                          uint32_t max_iterations,
                                          double tolerance) {
  const uint32_t n = graph.NumNodes();
  DPKRON_CHECK_GT(n, 0u);
  PowerIterationResult result;
  std::vector<double> v(n);
  for (Graph::NodeId u = 0; u < n; ++u) {
    v[u] = graph.Degree(u) + 0.1 + 0.01 * rng.NextDouble();
  }
  Scale(1.0 / Norm2(v), &v);

  // Iterate on A + I rather than A: for a non-negative matrix the shift
  // makes the Perron eigenvalue strictly dominant in magnitude even on
  // bipartite graphs (where A itself has λ_min = −λ_max and plain power
  // iteration oscillates forever).
  std::vector<double> w(n);
  double lambda = 0.0;
  for (uint32_t it = 0; it < max_iterations; ++it) {
    AdjacencyMatVec(graph, v, &w);
    Axpy(1.0, v, &w);  // w = (A + I) v
    const double norm = Norm2(w);
    if (norm < 1e-300) {
      result.eigenvalue = 0.0;
      result.eigenvector = v;
      result.iterations = it;
      return result;
    }
    Scale(1.0 / norm, &w);
    const double new_lambda = norm - 1.0;  // undo the +I shift
    std::swap(v, w);
    result.iterations = it + 1;
    if (std::fabs(new_lambda - lambda) <=
        tolerance * (std::fabs(new_lambda) + 1.0)) {
      lambda = new_lambda;
      break;
    }
    lambda = new_lambda;
  }
  // Orient non-negatively (Perron vector of a connected non-negative
  // matrix has one sign; mixed signs can linger on disconnected graphs).
  double sum = 0.0;
  for (double x : v) sum += x;
  if (sum < 0.0) Scale(-1.0, &v);
  result.eigenvalue = lambda;
  result.eigenvector = std::move(v);
  return result;
}

std::vector<double> NetworkValue(GraphView graph, Rng& rng, size_t count) {
  PowerIterationResult pi = PrincipalEigenvector(graph, rng);
  std::vector<double> values(pi.eigenvector.size());
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = std::fabs(pi.eigenvector[i]);
  }
  // Equal doubles are equal bits (fabs leaves no -0.0), so the top
  // `count` of a partial sort are the first `count` of a full one.
  if (count < values.size()) {
    std::partial_sort(values.begin(), values.begin() + count, values.end(),
                      std::greater<>());
    values.resize(count);
  } else {
    std::sort(values.rbegin(), values.rend());
  }
  return values;
}

}  // namespace dpkron
