// Sparse symmetric matrix–vector products for graph adjacency matrices.
//
// The Graph CSR *is* the sparse matrix; no separate copy is made. These
// kernels back the Lanczos eigensolver used for the scree and
// network-value panels.

#ifndef DPKRON_LINALG_SPMV_H_
#define DPKRON_LINALG_SPMV_H_

#include <cstddef>
#include <vector>

#include "src/graph/graph_view.h"

namespace dpkron {

// y = A x for the (symmetric, 0/1) adjacency matrix A of `graph`.
// x.size() and y.size() must equal NumNodes(); x and y must not alias.
void AdjacencyMatVec(GraphView graph, const std::vector<double>& x,
                     std::vector<double>* y);

// Euclidean norm, dot product, and axpy helpers used by the iterative
// solvers (kept here so the solvers stay readable). Below
// kMinParallelVector elements they run their fixed 8192-element chunks
// on the calling thread: Lanczos issues thousands of these O(n) calls
// per run, and on a few chunks a pool wake-up costs more than the work.
// The chunks, and so the results, are the same on either path.
inline constexpr size_t kMinParallelVector = size_t{1} << 16;

double Norm2(const std::vector<double>& x);
double Dot(const std::vector<double>& x, const std::vector<double>& y);
// y += alpha * x
void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y);
// x *= alpha
void Scale(double alpha, std::vector<double>* x);

// One modified Gram–Schmidt pass: for each q in `basis`, in order,
// w -= (q·w) q. Bit for bit the loop
//   for (const auto& q : basis) Axpy(-Dot(q, *w), q, w);
// but each q's Axpy is deferred into the loop that takes the next q's
// dot, so w is swept once per basis vector (one pool section each at
// kMinParallelVector elements and up) instead of twice. w must not be
// one of the basis vectors.
void OrthogonalizeAgainst(const std::vector<std::vector<double>>& basis,
                          std::vector<double>* w);

}  // namespace dpkron

#endif  // DPKRON_LINALG_SPMV_H_
