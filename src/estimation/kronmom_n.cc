#include "src/estimation/kronmom_n.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/macros.h"
#include "src/estimation/nelder_mead.h"
#include "src/skg/moments_n.h"

namespace dpkron {
namespace {

// Upper-triangle parameter vector <-> symmetric matrix.
std::vector<double> ToMatrix(const std::vector<double>& upper, uint32_t dim) {
  std::vector<double> entries(size_t(dim) * dim);
  size_t index = 0;
  for (uint32_t i = 0; i < dim; ++i) {
    for (uint32_t j = i; j < dim; ++j) {
      entries[i * dim + j] = upper[index];
      entries[j * dim + i] = upper[index];
      ++index;
    }
  }
  return entries;
}

double Term(const ObjectiveOptions& options, double observed,
            double expected) {
  const double distance = options.dist == DistKind::kSquared
                              ? (observed - expected) * (observed - expected)
                              : std::fabs(observed - expected);
  double norm = 1.0;
  switch (options.norm) {
    case NormKind::kF:
      norm = observed;
      break;
    case NormKind::kF2:
      norm = observed * observed;
      break;
    case NormKind::kE:
      norm = expected;
      break;
    case NormKind::kE2:
      norm = expected * expected;
      break;
  }
  return distance / std::max(std::fabs(norm), 1e-9);
}

}  // namespace

uint32_t ChooseOrderN(uint64_t num_nodes, uint32_t dim) {
  DPKRON_CHECK_GE(num_nodes, 2u);
  DPKRON_CHECK_GE(dim, 2u);
  uint32_t k = 0;
  uint64_t capacity = 1;
  while (capacity < num_nodes) {
    capacity *= dim;
    ++k;
  }
  return k;
}

double MomentObjectiveN(const std::vector<double>& upper_triangle,
                        uint32_t dim, uint32_t k,
                        const GraphFeatures& observed,
                        const ObjectiveOptions& options) {
  DPKRON_CHECK_EQ(upper_triangle.size(), size_t(dim) * (dim + 1) / 2);
  double overshoot = 0.0;
  std::vector<double> clamped = upper_triangle;
  for (double& x : clamped) {
    const double inside = std::clamp(x, 0.0, 1.0);
    overshoot += std::fabs(x - inside);
    x = inside;
  }
  const double penalty = 1e6 * overshoot * overshoot + 1e3 * overshoot;

  const auto theta = InitiatorN::Create(dim, ToMatrix(clamped, dim));
  DPKRON_CHECK(theta.ok());
  const SkgMoments expected = ExpectedMomentsN(theta.value(), k);
  double value = penalty;
  if (options.use_edges) value += Term(options, observed.edges, expected.edges);
  if (options.use_hairpins) {
    value += Term(options, observed.hairpins, expected.hairpins);
  }
  if (options.use_triangles) {
    value += Term(options, observed.triangles, expected.triangles);
  }
  if (options.use_tripins) {
    value += Term(options, observed.tripins, expected.tripins);
  }
  return value;
}

KronMomNResult FitKronMomN(const GraphFeatures& observed, uint32_t dim,
                           uint32_t k, Rng& rng) {
  // Random multi-starts, and the Nelder–Mead budget of each.
  constexpr uint32_t kNumStarts = 24;
  constexpr uint32_t kMaxIterations = 3000;
  DPKRON_CHECK_GE(dim, 2u);
  DPKRON_CHECK_GE(k, 1u);
  const size_t num_params = size_t(dim) * (dim + 1) / 2;

  auto objective = [&](const std::vector<double>& x) {
    return MomentObjectiveN(x, dim, k, observed);
  };

  NelderMeadOptions nm;
  nm.max_iterations = kMaxIterations;
  nm.initial_step = 0.15;

  KronMomNResult best;
  best.dim = dim;
  best.k = k;
  best.objective = std::numeric_limits<double>::infinity();
  for (uint32_t start = 0; start < kNumStarts; ++start) {
    std::vector<double> x0(num_params);
    if (start == 0) {
      // Canonical decreasing start: strong core, weaker periphery.
      size_t index = 0;
      for (uint32_t i = 0; i < dim; ++i) {
        for (uint32_t j = i; j < dim; ++j) {
          x0[index++] = std::max(0.1, 0.95 - 0.3 * (i + j));
        }
      }
    } else {
      for (double& x : x0) x = rng.NextDouble();
    }
    const NelderMeadResult run = NelderMead(objective, x0, nm);
    if (run.value < best.objective) {
      best.objective = run.value;
      std::vector<double> clamped = run.point;
      for (double& x : clamped) x = std::clamp(x, 0.0, 1.0);
      best.entries = ToMatrix(clamped, dim);
    }
  }
  return best;
}

}  // namespace dpkron
