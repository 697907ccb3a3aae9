#include "src/estimation/nelder_mead.h"

#include <algorithm>
#include <cmath>

#include "src/common/macros.h"

namespace dpkron {
namespace {

using Point = std::vector<double>;

// Convergence tolerances on the simplex's value spread and diameter.
constexpr double kValueTolerance = 1e-12;
constexpr double kPointTolerance = 1e-10;
// The standard simplex coefficients.
constexpr double kReflection = 1.0;
constexpr double kExpansion = 2.0;
constexpr double kContraction = 0.5;
constexpr double kShrink = 0.5;

Point Combine(const Point& x, const Point& y, double alpha) {
  // x + alpha * (x - y)
  Point out(x.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = x[i] + alpha * (x[i] - y[i]);
  return out;
}

}  // namespace

NelderMeadResult NelderMead(
    const std::function<double(const std::vector<double>&)>& objective,
    const std::vector<double>& start, const NelderMeadOptions& options) {
  const size_t dim = start.size();
  DPKRON_CHECK_GE(dim, 1u);

  struct Vertex {
    Point x;
    double f;
  };
  std::vector<Vertex> simplex;
  simplex.reserve(dim + 1);
  simplex.push_back({start, objective(start)});
  for (size_t i = 0; i < dim; ++i) {
    Point x = start;
    x[i] += options.initial_step;
    simplex.push_back({x, objective(x)});
  }
  auto by_value = [](const Vertex& u, const Vertex& v) { return u.f < v.f; };

  NelderMeadResult result;
  for (uint32_t it = 0; it < options.max_iterations; ++it) {
    std::sort(simplex.begin(), simplex.end(), by_value);
    result.iterations = it;

    // Convergence: value spread and simplex diameter.
    const double spread = simplex.back().f - simplex.front().f;
    double diameter = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      diameter = std::max(
          diameter, std::fabs(simplex.back().x[i] - simplex.front().x[i]));
    }
    if (spread <= kValueTolerance && diameter <= kPointTolerance) {
      result.converged = true;
      break;
    }

    // Centroid of all but the worst vertex.
    Point centroid(dim, 0.0);
    for (size_t v = 0; v < dim; ++v) {
      for (size_t i = 0; i < dim; ++i) centroid[i] += simplex[v].x[i];
    }
    for (double& coordinate : centroid) coordinate /= double(dim);

    const Vertex& worst = simplex.back();
    const Point reflected = Combine(centroid, worst.x, kReflection);
    const double f_reflected = objective(reflected);

    if (f_reflected < simplex.front().f) {
      // Try to expand further along the same direction.
      const Point expanded = Combine(centroid, worst.x, kExpansion);
      const double f_expanded = objective(expanded);
      simplex.back() = f_expanded < f_reflected
                           ? Vertex{expanded, f_expanded}
                           : Vertex{reflected, f_reflected};
      continue;
    }
    if (f_reflected < simplex[dim - 1].f) {
      simplex.back() = {reflected, f_reflected};
      continue;
    }
    // Contract (outside if the reflection helped at all, inside otherwise).
    const bool outside = f_reflected < worst.f;
    const Point contracted =
        outside ? Combine(centroid, worst.x, kContraction * kReflection)
                : Combine(centroid, worst.x, -kContraction);
    const double f_contracted = objective(contracted);
    if (f_contracted < std::min(f_reflected, worst.f)) {
      simplex.back() = {contracted, f_contracted};
      continue;
    }
    // Shrink toward the best vertex.
    for (size_t v = 1; v <= dim; ++v) {
      for (size_t i = 0; i < dim; ++i) {
        simplex[v].x[i] = simplex[0].x[i] +
                          kShrink * (simplex[v].x[i] - simplex[0].x[i]);
      }
      simplex[v].f = objective(simplex[v].x);
    }
  }

  std::sort(simplex.begin(), simplex.end(), by_value);
  result.point = simplex.front().x;
  result.value = simplex.front().f;
  return result;
}

}  // namespace dpkron
