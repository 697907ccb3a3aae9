// The four matching statistics F(G) = (E, H, ∆, T) of §3.4, as a value
// type shared by the non-private and private estimation paths.
//
// Fields are doubles because the differentially private pipeline produces
// fractional (and occasionally negative) approximations of the counts; the
// exact path fills them with integers.

#ifndef DPKRON_ESTIMATION_FEATURES_H_
#define DPKRON_ESTIMATION_FEATURES_H_

#include <cstdint>
#include <string>

#include "src/graph/graph_view.h"
#include "src/graph/node_stats.h"
#include "src/skg/moments.h"

namespace dpkron {

struct GraphFeatures {
  double edges = 0.0;      // E
  double hairpins = 0.0;   // H (wedges / 2-stars)
  double triangles = 0.0;  // ∆
  double tripins = 0.0;    // T (3-stars)

  std::string ToString() const;
};

// FeaturesFromNodeStats over the graph's cached node stats. The KronMom
// and private estimation routes call this, so a sweep walks each
// graph's CSR once instead of once per run.
GraphFeatures ComputeFeaturesCached(GraphView graph);

// The exact features from a graph's edge count and node stats
// (graph/node_stats.h): H = Σ d(d−1)/2, T = Σ d(d−1)(d−2)/6 and
// ∆ = Σ t_u / 3, summed as integers. Every exact feature comes from
// here; no per-feature walker re-reads the CSR.
GraphFeatures FeaturesFromNodeStats(uint64_t num_edges,
                                    const NodeStats& stats);

// E, H, T from a (possibly noisy, fractional) degree vector using the
// Algorithm 1 step-3 formulas; `triangles` must be supplied separately.
GraphFeatures FeaturesFromDegrees(const std::vector<double>& degrees,
                                  double triangles);

// Pointwise max(value, floor) on every field — the post-processing clamp
// applied to privatized features before fitting (noise can push counts
// negative; a count below `floor` carries no usable signal for moment
// matching). Post-processing preserves differential privacy.
GraphFeatures ClampFeatures(const GraphFeatures& features, double floor = 1.0);

// Conversion from model-expected moments (for tests and objectives).
GraphFeatures FromMoments(const SkgMoments& moments);

}  // namespace dpkron

#endif  // DPKRON_ESTIMATION_FEATURES_H_
