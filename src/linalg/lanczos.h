// Symmetric Lanczos eigensolver for adjacency spectra.
//
// Produces the top-k eigenvalues by magnitude (and, being symmetric, the
// top-k singular values as their absolute values) — the "scree plot"
// panels of Figs 1–4. Full reorthogonalization is used: the graphs here
// are ≤ 2^14 nodes and k ≤ ~100, so robustness beats the O(m²n) cost.

#ifndef DPKRON_LINALG_LANCZOS_H_
#define DPKRON_LINALG_LANCZOS_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/graph/graph_view.h"

namespace dpkron {

// Eigenvalues (all m, unsorted) of the symmetric tridiagonal matrix with
// diagonal `diag` (size m) and off-diagonal `offdiag` (size m-1).
// Implicit-shift QL iteration without eigenvector accumulation: the
// rotations never feed back into the eigenvalues. Exposed for testing.
std::vector<double> TridiagonalEigen(std::vector<double> diag,
                                     std::vector<double> offdiag);

// Top-k adjacency eigenvalues of `graph` sorted by descending magnitude,
// from a Krylov space of dimension min(n, 3k + 30).
// Requires 1 <= k <= NumNodes().
std::vector<double> TopEigenvalues(GraphView graph, uint32_t k, Rng& rng);

// Top-k singular values (|eigenvalue|, descending) — the scree plot.
std::vector<double> TopSingularValues(GraphView graph, uint32_t k, Rng& rng);

}  // namespace dpkron

#endif  // DPKRON_LINALG_LANCZOS_H_
