// Moment-matching estimation for general symmetric N1×N1 initiators —
// the model-selection direction the paper points at in §3.3 ("An
// appropriate size for N1 is decided upon using standard techniques of
// model selection ... for many real-world graphs, having N1 > 2 does not
// accrue a significant advantage"). With moments_n.h this lets us test
// that claim rather than assume it (see bench/ablation_model_selection).

#ifndef DPKRON_ESTIMATION_KRONMOM_N_H_
#define DPKRON_ESTIMATION_KRONMOM_N_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/estimation/features.h"
#include "src/estimation/objective.h"
#include "src/skg/initiator.h"

namespace dpkron {

struct KronMomNResult {
  // Fitted symmetric initiator (row-major, dim*dim entries).
  std::vector<double> entries;
  uint32_t dim = 0;
  uint32_t k = 0;
  double objective = 0.0;
};

// Smallest k with dim^k >= num_nodes.
uint32_t ChooseOrderN(uint64_t num_nodes, uint32_t dim);

// Eq. (2) objective against general-initiator expected moments. Upper-
// triangle parameters outside [0,1] are clamped + penalized, as in the
// 2×2 objective.
double MomentObjectiveN(const std::vector<double>& upper_triangle,
                        uint32_t dim, uint32_t k,
                        const GraphFeatures& observed,
                        const ObjectiveOptions& options = {});

// Fits a symmetric dim×dim initiator to observed features at order k
// under the default Eq. (2) objective: 24 Nelder–Mead runs of up to 3000
// iterations each, from a canonical decreasing start and 23 random ones.
// `rng` drives the multi-start; results are deterministic given the seed.
KronMomNResult FitKronMomN(const GraphFeatures& observed, uint32_t dim,
                           uint32_t k, Rng& rng);

}  // namespace dpkron

#endif  // DPKRON_ESTIMATION_KRONMOM_N_H_
