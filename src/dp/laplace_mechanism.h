// The Laplace mechanism (Dwork, McSherry, Nissim & Smith — Theorem 4.5 of
// the paper): adding Lap(GS_Q/ε) noise to a query with global sensitivity
// GS_Q gives (ε, 0)-differential privacy.
//
// Degenerate parameters (sensitivity ≤ 0, ε ≤ 0) are data-dependent
// conditions a batch sweep over arbitrary --dataset inputs can reach
// (e.g. a zero-sensitivity statistic on a degenerate graph, or ε = 0 in
// a sweep grid), so they surface as an InvalidArgument Status the run
// report can record — not a process abort that would kill the batch.

#ifndef DPKRON_DP_LAPLACE_MECHANISM_H_
#define DPKRON_DP_LAPLACE_MECHANISM_H_

#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"

namespace dpkron {

// The one parameter check of both mechanisms below: InvalidArgument
// unless sensitivity > 0 and epsilon > 0 (both finite). Exposed so a
// caller can reject a release before it looks one up in the StatCache
// (private_features.cc), which never stores a failure.
Status ValidateLaplaceParams(double sensitivity, double epsilon);

// value + Lap(sensitivity/epsilon). InvalidArgument unless
// sensitivity > 0 and epsilon > 0 (both finite).
Result<double> AddLaplaceNoise(double value, double sensitivity,
                               double epsilon, Rng& rng);

// Element-wise noisy copy of `values`, i.i.d. Lap(sensitivity/epsilon) —
// for vector queries whose L1 global sensitivity is `sensitivity`
// (e.g. the sorted degree sequence, GS = 2). Same parameter validation
// as AddLaplaceNoise; on error no noise is drawn from `rng`.
Result<std::vector<double>> AddLaplaceNoiseVector(
    const std::vector<double>& values, double sensitivity, double epsilon,
    Rng& rng);

}  // namespace dpkron

#endif  // DPKRON_DP_LAPLACE_MECHANISM_H_
