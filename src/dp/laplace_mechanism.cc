#include "src/dp/laplace_mechanism.h"

#include <cmath>

namespace dpkron {
namespace {

// Shared validation, one function so the scalar and vector mechanisms
// can never drift.
Status ValidateLaplaceParams(double sensitivity, double epsilon) {
  if (!(sensitivity > 0.0) || !std::isfinite(sensitivity)) {
    return Status::InvalidArgument(
        "Laplace mechanism needs sensitivity > 0, got " +
        std::to_string(sensitivity));
  }
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(
        "Laplace mechanism needs epsilon > 0, got " +
        std::to_string(epsilon));
  }
  return Status::Ok();
}

}  // namespace

Result<double> AddLaplaceNoise(double value, double sensitivity,
                               double epsilon, Rng& rng) {
  if (Status s = ValidateLaplaceParams(sensitivity, epsilon); !s.ok()) {
    return s;
  }
  return value + rng.NextLaplace(sensitivity / epsilon);
}

Result<std::vector<double>> AddLaplaceNoiseVector(
    const std::vector<double>& values, double sensitivity, double epsilon,
    Rng& rng) {
  if (Status s = ValidateLaplaceParams(sensitivity, epsilon); !s.ok()) {
    return s;
  }
  const double scale = sensitivity / epsilon;
  // Batched draw, then element-wise add. The stream consumption and the
  // per-element add (one rounding) match the old draw-and-add-per-
  // element loop exactly, so outputs are bit-identical to pre-batch
  // releases.
  std::vector<double> noisy(values.size());
  rng.FillLaplace(scale, noisy.data(), noisy.size());
  for (size_t i = 0; i < values.size(); ++i) {
    noisy[i] = values[i] + noisy[i];
  }
  return noisy;
}

}  // namespace dpkron
