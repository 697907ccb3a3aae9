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

// Eigenvalues (all m Ritz values) and eigenvectors of the symmetric
// tridiagonal matrix with diagonal `diag` (size m) and off-diagonal
// `offdiag` (size m-1). Eigenvectors are returned row-major: vector i is
// eigenvectors[i*m .. i*m+m-1], matching eigenvalues[i]. Implicit-shift QL
// iteration. Exposed for testing.
struct TridiagonalEigenResult {
  std::vector<double> eigenvalues;
  std::vector<double> eigenvectors;  // row-major m x m
};
TridiagonalEigenResult TridiagonalEigen(std::vector<double> diag,
                                        std::vector<double> offdiag);

// Top-k adjacency eigenvalues of `graph` sorted by descending magnitude,
// from a Krylov space of dimension min(n, 3k + 30).
// Requires 1 <= k <= NumNodes().
std::vector<double> TopEigenvalues(GraphView graph, uint32_t k, Rng& rng);

// Top-k singular values (|eigenvalue|, descending) — the scree plot.
std::vector<double> TopSingularValues(GraphView graph, uint32_t k, Rng& rng);

}  // namespace dpkron

#endif  // DPKRON_LINALG_LANCZOS_H_
