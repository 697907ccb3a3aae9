#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/linalg/lanczos.h"
#include "src/linalg/network_value.h"
#include "src/linalg/spmv.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::CompleteGraph;
using testing::CycleGraph;
using testing::PathGraph;
using testing::StarGraph;

TEST(SpmvTest, AdjacencyMatVecOnPath) {
  const Graph g = PathGraph(3);
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(3);
  AdjacencyMatVec(g, x, &y);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 4.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(SpmvTest, Helpers) {
  std::vector<double> x = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(Norm2(x), 5.0);
  std::vector<double> y = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(Dot(x, y), 11.0);
  Axpy(2.0, y, &x);
  EXPECT_DOUBLE_EQ(x[0], 5.0);
  EXPECT_DOUBLE_EQ(x[1], 8.0);
  Scale(0.5, &x);
  EXPECT_DOUBLE_EQ(x[0], 2.5);
}

TEST(TridiagonalEigenTest, DiagonalMatrix) {
  std::vector<double> values = TridiagonalEigen({3.0, 1.0, 2.0}, {0.0, 0.0});
  std::sort(values.begin(), values.end());
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 2.0, 1e-12);
  EXPECT_NEAR(values[2], 3.0, 1e-12);
}

TEST(TridiagonalEigenTest, TwoByTwoKnown) {
  // [[2, 1], [1, 2]] -> eigenvalues 1 and 3.
  std::vector<double> values = TridiagonalEigen({2.0, 2.0}, {1.0});
  std::sort(values.begin(), values.end());
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 3.0, 1e-12);
}

TEST(TridiagonalEigenTest, ToeplitzAnalyticSpectrum) {
  // The m×m tridiagonal Toeplitz matrix (a on the diagonal, b off it) has
  // eigenvalues a + 2b·cos(πi/(m+1)), i = 1..m. m = 180 is the Krylov
  // dimension Lanczos builds for the 50-value scree panels.
  const size_t m = 180;
  const double a = 0.75, b = -1.5;
  std::vector<double> values = TridiagonalEigen(
      std::vector<double>(m, a), std::vector<double>(m - 1, b));
  ASSERT_EQ(values.size(), m);
  std::vector<double> expected;
  for (size_t i = 1; i <= m; ++i) {
    const double theta = std::numbers::pi * i / (m + 1.0);
    expected.push_back(a + 2.0 * b * std::cos(theta));
  }
  std::sort(values.begin(), values.end());
  std::sort(expected.begin(), expected.end());
  for (size_t i = 0; i < m; ++i) EXPECT_NEAR(values[i], expected[i], 1e-12);
}

TEST(LanczosTest, CompleteGraphSpectrum) {
  // K_n: eigenvalues n-1 (once) and -1 (n-1 times).
  Rng rng(5);
  const auto top = TopEigenvalues(CompleteGraph(8), 3, rng);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_NEAR(top[0], 7.0, 1e-8);
  EXPECT_NEAR(std::fabs(top[1]), 1.0, 1e-8);
  EXPECT_NEAR(std::fabs(top[2]), 1.0, 1e-8);
}

TEST(LanczosTest, StarGraphSingularValues) {
  // Star on n nodes: spectrum ±sqrt(n-1), zeros.
  Rng rng(6);
  const auto sv = TopSingularValues(StarGraph(10), 3, rng);
  ASSERT_EQ(sv.size(), 3u);
  EXPECT_NEAR(sv[0], 3.0, 1e-8);
  EXPECT_NEAR(sv[1], 3.0, 1e-8);
  EXPECT_NEAR(sv[2], 0.0, 1e-6);
}

TEST(LanczosTest, CycleEigenvalues) {
  // C_n eigenvalues: 2·cos(2πj/n); top |λ| = 2.
  Rng rng(7);
  const auto top = TopEigenvalues(CycleGraph(12), 1, rng);
  EXPECT_NEAR(top[0], 2.0, 1e-8);
}

TEST(LanczosTest, SingularValuesSortedDescending) {
  Rng rng(8);
  const auto sv = TopSingularValues(testing::PetersenGraph(), 5, rng);
  for (size_t i = 1; i < sv.size(); ++i) EXPECT_GE(sv[i - 1], sv[i]);
  // Petersen: 3-regular, top eigenvalue 3, second |λ| = 2 (λ=1 has
  // multiplicity 5, λ=-2 multiplicity 4).
  EXPECT_NEAR(sv[0], 3.0, 1e-8);
  EXPECT_NEAR(sv[1], 2.0, 1e-8);
}

TEST(PowerIterationTest, StarGraphPrincipalVector) {
  // Principal eigenvector of star: center = 1/√2, leaves = 1/√(2(n−1)).
  Rng rng(9);
  const auto pi = PrincipalEigenvector(StarGraph(5), rng);
  EXPECT_NEAR(pi.eigenvalue, 2.0, 1e-6);  // sqrt(4)
  EXPECT_NEAR(pi.eigenvector[0], 1.0 / std::sqrt(2.0), 1e-5);
  for (int v = 1; v < 5; ++v) {
    EXPECT_NEAR(pi.eigenvector[v], 1.0 / std::sqrt(8.0), 1e-5);
  }
}

TEST(PowerIterationTest, EdgelessGraphGivesZero) {
  Rng rng(10);
  const auto pi = PrincipalEigenvector(testing::MakeGraph(4, {}), rng);
  EXPECT_DOUBLE_EQ(pi.eigenvalue, 0.0);
}

TEST(NetworkValueTest, SortedDescendingUnitNorm) {
  Rng rng(11);
  const auto nv = NetworkValue(CompleteGraph(6), rng);
  ASSERT_EQ(nv.size(), 6u);
  double norm_sq = 0.0;
  for (size_t i = 0; i < nv.size(); ++i) {
    if (i > 0) EXPECT_GE(nv[i - 1], nv[i]);
    norm_sq += nv[i] * nv[i];
  }
  EXPECT_NEAR(norm_sq, 1.0, 1e-9);
  // K_n principal vector is uniform.
  for (double value : nv) EXPECT_NEAR(value, 1.0 / std::sqrt(6.0), 1e-6);
}

}  // namespace
}  // namespace dpkron
