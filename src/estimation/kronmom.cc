#include "src/estimation/kronmom.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/common/macros.h"
#include "src/common/stat_cache.h"
#include "src/estimation/nelder_mead.h"

namespace dpkron {

uint32_t ChooseKroneckerOrder(uint64_t num_nodes) {
  DPKRON_CHECK_GE(num_nodes, 2u);
  uint32_t k = 0;
  uint64_t capacity = 1;
  while (capacity < num_nodes) {
    capacity <<= 1;
    ++k;
  }
  return k;
}

namespace {

// Coarse-lattice resolution per axis for start-point selection.
constexpr uint32_t kGridPoints = 7;
// How many of the best lattice points seed a full Nelder–Mead run.
constexpr uint32_t kNumStarts = 5;

// The grid search + multi-start Nelder-Mead behind FitKronMomToFeatures.
KronMomResult FitKronMomToFeaturesImpl(const GraphFeatures& observed,
                                       uint32_t k,
                                       const KronMomOptions& options) {

  auto objective = [&](const std::vector<double>& x) {
    return MomentObjective(Initiator2{x[0], x[1], x[2]}, k, observed,
                           options.objective);
  };

  // Rank coarse-lattice candidates; the lattice spans the closed box.
  struct Candidate {
    Initiator2 theta;
    double value;
  };
  std::vector<Candidate> candidates;
  const uint32_t g = kGridPoints;
  candidates.reserve(static_cast<size_t>(g) * g * g);
  for (uint32_t ia = 0; ia < g; ++ia) {
    for (uint32_t ib = 0; ib < g; ++ib) {
      for (uint32_t ic = 0; ic < g; ++ic) {
        const Initiator2 theta{double(ia) / (g - 1), double(ib) / (g - 1),
                               double(ic) / (g - 1)};
        candidates.push_back(
            {theta, MomentObjective(theta, k, observed, options.objective)});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              return x.value < y.value;
            });

  KronMomResult best;
  best.k = k;
  best.objective = std::numeric_limits<double>::infinity();
  for (uint32_t s = 0; s < kNumStarts; ++s) {
    const Initiator2& start = candidates[s].theta;
    NelderMeadResult run =
        NelderMead(objective, {start.a, start.b, start.c});
    if (run.value < best.objective) {
      best.objective = run.value;
      best.theta = Initiator2{run.point[0], run.point[1], run.point[2]}
                       .Clamped()
                       .Canonical();
      best.converged = run.converged;
    }
  }
  return best;
}

// Layout 1: (θ, objective, k, converged). Unpinned: libm makes its bits
// vary by host.
const CacheDomain<KronMomResult> kKronMomFitDomain{
    "kronmom_fit", 1,
    [](const KronMomResult& result, RecordBuilder& rec) {
      rec.Double(result.theta.a)
          .Double(result.theta.b)
          .Double(result.theta.c)
          .Double(result.objective)
          .U32(result.k)
          .U32(result.converged ? 1 : 0);
    },
    [](RecordParser& rec) -> std::optional<KronMomResult> {
      KronMomResult result;
      result.theta.a = rec.Double();
      result.theta.b = rec.Double();
      result.theta.c = rec.Double();
      result.objective = rec.Double();
      result.k = rec.U32();
      result.converged = rec.U32() != 0;
      if (!rec.ok()) return std::nullopt;
      return result;
    }};

}  // namespace

KronMomResult FitKronMomToFeatures(const GraphFeatures& observed, uint32_t k,
                                   const KronMomOptions& options) {
  DPKRON_CHECK_GE(k, 1u);
  // The fit is a deterministic pure function of (features, k, options):
  // memoize it by value through the StatCache. In an ε sweep the exact-
  // feature fit recurs in every run of a dataset; fits on privatized
  // (per-run-noise) features simply key distinctly and miss.
  const CacheKey key = CacheKey()
                           .MixDouble(observed.edges)
                           .MixDouble(observed.hairpins)
                           .MixDouble(observed.triangles)
                           .MixDouble(observed.tripins)
                           .Mix(k)
                           .Mix(static_cast<uint64_t>(options.objective.dist))
                           .Mix(static_cast<uint64_t>(options.objective.norm))
                           .Mix(options.objective.use_edges)
                           .Mix(options.objective.use_hairpins)
                           .Mix(options.objective.use_triangles)
                           .Mix(options.objective.use_tripins);
  return *StatCache::Instance().Memoize(kKronMomFitDomain, key, [&] {
    return FitKronMomToFeaturesImpl(observed, k, options);
  });
}

KronMomResult FitKronMom(GraphView graph, const KronMomOptions& options) {
  const GraphFeatures observed = ComputeFeaturesCached(graph);
  const uint32_t k = ChooseKroneckerOrder(graph.NumNodes());
  return FitKronMomToFeatures(observed, k, options);
}

}  // namespace dpkron
