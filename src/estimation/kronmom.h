// KronMom: the Gleich–Owen moment-matching estimator of the SKG initiator
// (§3.4). Multi-start Nelder–Mead over (a, b, c) on the Eq. (2) objective:
// the 5 best points of a 7×7×7 lattice over the closed box each seed a
// Nelder–Mead run.
//
// This is the non-private estimator the paper's "KronMom" columns/series
// refer to, and the optimization core that Algorithm 1 reuses with
// privatized features.

#ifndef DPKRON_ESTIMATION_KRONMOM_H_
#define DPKRON_ESTIMATION_KRONMOM_H_

#include <cstdint>

#include "src/estimation/features.h"
#include "src/estimation/objective.h"
#include "src/graph/graph_view.h"
#include "src/skg/initiator.h"

namespace dpkron {

struct KronMomOptions {
  ObjectiveOptions objective;
};

struct KronMomResult {
  Initiator2 theta;        // canonical (a ≥ c)
  double objective = 0.0;  // Eq. (2) value at theta
  uint32_t k = 0;          // Kronecker order used
  bool converged = false;
};

// Smallest k with 2^k ≥ num_nodes — the model-selection rule the paper
// uses (N is padded up to the next power of two).
uint32_t ChooseKroneckerOrder(uint64_t num_nodes);

// Fits Θ to pre-computed observed features at Kronecker order k.
KronMomResult FitKronMomToFeatures(const GraphFeatures& observed, uint32_t k,
                                   const KronMomOptions& options = {});

// Convenience: extracts exact features from `graph`, chooses k, fits.
KronMomResult FitKronMom(GraphView graph,
                         const KronMomOptions& options = {});

}  // namespace dpkron

#endif  // DPKRON_ESTIMATION_KRONMOM_H_
