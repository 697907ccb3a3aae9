// Quickstart: the 60-second tour of dpkron.
//
//   1. obtain a sensitive graph (here: a synthetic co-authorship network);
//   2. run the differentially private SKG estimator (Algorithm 1 of
//      Mir & Wright, PAIS'12) at (ε, δ) = (0.2, 0.01);
//   3. publish Θ̃ and sample a synthetic graph from it;
//   4. check that the synthetic graph mimics the original's statistics.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "src/common/rng.h"
#include "src/core/private_estimator.h"
#include "src/datasets/affiliation.h"
#include "src/graph/clustering.h"
#include "src/graph/hop_plot.h"
#include "src/graph/node_stats.h"
#include "src/skg/sampler.h"

int main() {
  using namespace dpkron;

  // 1. The sensitive graph. In a real deployment this is your user data
  //    (see graph_io.h for the SNAP edge-list loader); here we synthesize
  //    a co-authorship-like network so the example is self-contained.
  Rng rng(2012);
  AffiliationOptions options;
  options.num_authors = 2048;
  options.num_papers = 1300;
  const Graph sensitive = AffiliationGraph(options, rng);
  std::printf("sensitive graph: %u nodes, %llu edges\n",
              sensitive.NumNodes(),
              static_cast<unsigned long long>(sensitive.NumEdges()));

  // 2. Differentially private estimation. The returned theta is safe to
  //    publish; the budget object documents the composition argument.
  const double epsilon = 0.2, delta = 0.01;
  PrivacyBudget budget(epsilon, delta);
  const auto estimate =
      EstimatePrivateSkg(sensitive, epsilon, delta, budget, rng);
  if (!estimate.ok()) {
    std::fprintf(stderr, "estimation failed: %s\n",
                 estimate.status().ToString().c_str());
    return 1;
  }
  std::printf("\nprivate initiator estimate  Theta~ = %s   (k = %u)\n",
              estimate.value().theta.ToString().c_str(),
              estimate.value().k);
  std::printf("%s", budget.ToString().c_str());

  // 3. Anyone can now sample synthetic graphs from the published model.
  const Graph synthetic =
      SampleSkg(estimate.value().theta, estimate.value().k, rng);

  // 4. Compare a few statistics.
  const auto hops_orig = ExactHopPlot(sensitive);
  const auto hops_synth = ExactHopPlot(synthetic);
  const NodeStats stats_orig = ComputeNodeStats(sensitive);
  const NodeStats stats_synth = ComputeNodeStats(synthetic);
  std::printf("\n%-28s %14s %14s\n", "statistic", "original", "synthetic");
  std::printf("%-28s %14llu %14llu\n", "edges",
              static_cast<unsigned long long>(sensitive.NumEdges()),
              static_cast<unsigned long long>(synthetic.NumEdges()));
  std::printf("%-28s %14u %14u\n", "effective diameter (90%)",
              EffectiveDiameter(hops_orig), EffectiveDiameter(hops_synth));
  std::printf("%-28s %14.4f %14.4f\n", "average clustering",
              AverageClusteringFromParts(stats_orig.degrees,
                                         stats_orig.triangles),
              AverageClusteringFromParts(stats_synth.degrees,
                                         stats_synth.triangles));
  std::printf(
      "\n(SKG models under-fit clustering on clique-heavy graphs — the\n"
      " same limitation the paper reports for CA-GrQC/CA-HepTh.)\n");
  return 0;
}
