// "Network value": the distribution of components of the principal
// eigenvector of the adjacency matrix (the eigenvector associated with the
// largest eigenvalue), sorted descending — panel (d) of Figs 1–4.
//
// For a non-negative symmetric matrix the dominant eigenvalue is the
// spectral radius (Perron–Frobenius), so plain power iteration converges
// to the right vector.

#ifndef DPKRON_LINALG_NETWORK_VALUE_H_
#define DPKRON_LINALG_NETWORK_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/graph/graph_view.h"

namespace dpkron {

struct PowerIterationResult {
  double eigenvalue = 0.0;
  std::vector<double> eigenvector;  // unit norm, non-negative orientation
  uint32_t iterations = 0;
};

// Power iteration on the adjacency matrix. Deterministic start (degree
// vector) with random perturbation to avoid pathological orthogonality.
PowerIterationResult PrincipalEigenvector(GraphView graph, Rng& rng,
                                          uint32_t max_iterations = 1000,
                                          double tolerance = 1e-10);

// The `count` largest |components| of the principal eigenvector (all of
// them by default), sorted descending. This is exactly the network-value
// series plotted against rank; its first k entries do not depend on
// `count` >= k.
std::vector<double> NetworkValue(GraphView graph, Rng& rng,
                                 size_t count = SIZE_MAX);

}  // namespace dpkron

#endif  // DPKRON_LINALG_NETWORK_VALUE_H_
