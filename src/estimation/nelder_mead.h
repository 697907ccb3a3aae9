// Derivative-free simplex minimizer (Nelder & Mead, 1965).
//
// The Eq. (2) objective is a smooth rational function of (a, b, c) but its
// derivatives are unwieldy and the landscape has flat valleys near the
// box boundary; Nelder–Mead with a box penalty (built into the objective)
// plus multi-start is what Gleich's reference code effectively does, and
// is robust here.

#ifndef DPKRON_ESTIMATION_NELDER_MEAD_H_
#define DPKRON_ESTIMATION_NELDER_MEAD_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace dpkron {

struct NelderMeadOptions {
  uint32_t max_iterations = 2000;
  // Initial simplex edge length around the start point.
  double initial_step = 0.1;
};

struct NelderMeadResult {
  std::vector<double> point;
  double value = 0.0;
  uint32_t iterations = 0;
  bool converged = false;
};

// Minimizes `objective` starting from `start` (dimension = start.size())
// with the standard coefficients (reflection 1, expansion 2, contraction
// and shrink 1/2). Stops when the simplex's value spread is at most
// 1e-12 and its diameter at most 1e-10, or after max_iterations.
NelderMeadResult NelderMead(
    const std::function<double(const std::vector<double>&)>& objective,
    const std::vector<double>& start, const NelderMeadOptions& options = {});

}  // namespace dpkron

#endif  // DPKRON_ESTIMATION_NELDER_MEAD_H_
