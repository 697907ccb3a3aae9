#include "src/linalg/lanczos.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/macros.h"
#include "src/linalg/spmv.h"

namespace dpkron {
namespace {

inline double Sign(double a, double b) { return b >= 0.0 ? std::fabs(a) : -std::fabs(a); }

// sqrt(a^2 + b^2) without destructive overflow.
inline double Pythag(double a, double b) {
  const double absa = std::fabs(a), absb = std::fabs(b);
  if (absa > absb) {
    const double r = absb / absa;
    return absa * std::sqrt(1.0 + r * r);
  }
  if (absb == 0.0) return 0.0;
  const double r = absa / absb;
  return absb * std::sqrt(1.0 + r * r);
}

}  // namespace

std::vector<double> TridiagonalEigen(std::vector<double> diag,
                                     std::vector<double> offdiag) {
  const size_t m = diag.size();
  DPKRON_CHECK_GT(m, 0u);
  DPKRON_CHECK_EQ(offdiag.size(), m - 1);

  // e[i] holds the subdiagonal shifted up by one (NR convention).
  std::vector<double> e = std::move(offdiag);
  e.push_back(0.0);

  for (size_t l = 0; l < m; ++l) {
    int iterations = 0;
    size_t target = l;
    while (true) {
      // Find a negligible subdiagonal element to split the matrix.
      size_t split = target;
      for (; split + 1 < m; ++split) {
        const double dd =
            std::fabs(diag[split]) + std::fabs(diag[split + 1]);
        if (std::fabs(e[split]) <= 1e-15 * dd) break;
      }
      if (split == target) break;  // eigenvalue target converged

      DPKRON_CHECK_MSG(++iterations <= 50, "TQLI failed to converge");
      // Form implicit shift from the 2x2 corner.
      double g = (diag[target + 1] - diag[target]) / (2.0 * e[target]);
      double r = Pythag(g, 1.0);
      g = diag[split] - diag[target] + e[target] / (g + Sign(r, g));
      double s = 1.0, c = 1.0, p = 0.0;
      for (size_t i = split; i-- > target;) {
        const double f = s * e[i];
        const double b = c * e[i];
        r = Pythag(f, g);
        e[i + 1] = r;
        if (r == 0.0) {  // Recover from underflow.
          diag[i + 1] -= p;
          e[split] = 0.0;
          break;
        }
        s = f / r;
        c = g / r;
        g = diag[i + 1] - p;
        r = (diag[i] - g) * s + 2.0 * c * b;
        p = s * r;
        diag[i + 1] = g + p;
        g = c * r - b;
      }
      if (r == 0.0 && split > target) continue;
      diag[target] -= p;
      e[target] = g;
      e[split] = 0.0;
    }
  }

  return diag;
}

namespace {

// Runs Lanczos with full reorthogonalization; returns all Ritz values.
std::vector<double> RitzValues(GraphView graph, uint32_t iterations,
                               Rng& rng) {
  const uint32_t n = graph.NumNodes();
  const uint32_t m = std::min(iterations, n);
  std::vector<std::vector<double>> basis;  // v_1 .. v_m
  basis.reserve(m);

  std::vector<double> v(n);
  for (double& value : v) value = rng.NextGaussian();
  Scale(1.0 / Norm2(v), &v);
  basis.push_back(std::move(v));

  std::vector<double> alpha, beta;
  std::vector<double> w(n);
  for (uint32_t j = 0; j < m; ++j) {
    AdjacencyMatVec(graph, basis[j], &w);
    const double a = Dot(basis[j], w);
    alpha.push_back(a);
    Axpy(-a, basis[j], &w);
    if (j > 0) Axpy(-beta[j - 1], basis[j - 1], &w);
    // Full reorthogonalization: two passes of modified Gram–Schmidt (each
    // dot is taken against the already-updated w, one basis vector at a
    // time).
    for (int pass = 0; pass < 2; ++pass) OrthogonalizeAgainst(basis, &w);
    const double b = Norm2(w);
    if (j + 1 == m) break;
    if (b < 1e-12) {
      // Invariant subspace exhausted: restart with a random vector
      // orthogonal to the current basis.
      for (double& value : w) value = rng.NextGaussian();
      for (int pass = 0; pass < 2; ++pass) OrthogonalizeAgainst(basis, &w);
      const double wn = Norm2(w);
      if (wn < 1e-12) break;  // Full spectrum captured.
      Scale(1.0 / wn, &w);
      beta.push_back(0.0);
    } else {
      Scale(1.0 / b, &w);
      beta.push_back(b);
    }
    basis.push_back(w);
  }

  return TridiagonalEigen(std::move(alpha), std::move(beta));
}

}  // namespace

std::vector<double> TopEigenvalues(GraphView graph, uint32_t k, Rng& rng) {
  DPKRON_CHECK_GE(k, 1u);
  DPKRON_CHECK_LE(k, graph.NumNodes());
  const uint32_t iterations = std::min(graph.NumNodes(), 3 * k + 30);
  std::vector<double> ritz = RitzValues(graph, iterations, rng);
  std::sort(ritz.begin(), ritz.end(), [](double a, double b) {
    return std::fabs(a) > std::fabs(b);
  });
  ritz.resize(std::min<size_t>(k, ritz.size()));
  return ritz;
}

std::vector<double> TopSingularValues(GraphView graph, uint32_t k, Rng& rng) {
  std::vector<double> eigenvalues = TopEigenvalues(graph, k, rng);
  for (double& value : eigenvalues) value = std::fabs(value);
  std::sort(eigenvalues.rbegin(), eigenvalues.rend());
  return eigenvalues;
}

}  // namespace dpkron
