// dK-2 series extraction, privatization and generation — a compact
// implementation of the approach of Sala, Zhao, Wilson, Zheng & Zhao,
// "Sharing Graphs using Differentially Private Graph Models" (IMC'11),
// which the paper names as the closest related work and the comparison it
// plans to undertake (§5). This module provides that comparison.
//
// The dK-2 series (joint degree distribution, JDD) counts, for every
// unordered degree pair {x, y}, the number of edges whose endpoints have
// degrees x and y. Releasing a noisy dK-2 and re-generating a graph from
// it preserves degree structure and degree-degree correlations by
// construction — the trade-off against the SKG route being compactness
// (O(d_max²) released values vs 3) and generator feasibility slack.
//
// Sensitivity: flipping one edge {u, v} changes the cell of that edge by
// one AND shifts every edge incident to u or v to an adjacent-degree
// cell, so the L1 sensitivity of the series is 4·d_max + 1 (Sala et al.,
// §4.2). d_max is treated as public side information (a cap supplied by
// the data custodian), exactly as in the original system.

#ifndef DPKRON_DK_DK2_H_
#define DPKRON_DK_DK2_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/dp/privacy_budget.h"
#include "src/graph/graph_view.h"

namespace dpkron {

// The dK-2 series. Keys are degree pairs (x ≤ y); values are edge counts
// (doubles so one type serves exact and privatized tables).
class Dk2Table {
 public:
  using DegreePair = std::pair<uint32_t, uint32_t>;

  Dk2Table() = default;

  // Exact extraction from a graph.
  static Dk2Table FromGraph(GraphView graph);

  double Count(uint32_t x, uint32_t y) const;
  void Set(uint32_t x, uint32_t y, double count);

  // Total edge mass Σ counts.
  double TotalEdges() const;

  // Implied number of degree-d nodes: (Σ_y m(d,y) + m(d,d)) / d.
  // Fractional for noisy tables.
  double ImpliedNodeCount(uint32_t d) const;

  const std::map<DegreePair, double>& cells() const { return cells_; }
  uint32_t max_degree() const { return max_degree_; }

  // L1 distance between two tables over the union of their cells.
  static double L1Distance(const Dk2Table& a, const Dk2Table& b);

 private:
  std::map<DegreePair, double> cells_;
  uint32_t max_degree_ = 0;
};

struct Dk2PrivatizeOptions {
  // Public cap on d_max used for the sensitivity 4·cap + 1. Cells with
  // degrees above the cap are dropped (their edges are not represented) —
  // the custodian chooses the cap as public knowledge, per Sala et al.
  uint32_t degree_cap = 0;  // 0 = use the table's own max degree
  // Post-processing zeroes cells below threshold_factor·scale·ln(#cells)
  // and then every negative noisy count. Without the threshold, the
  // ~cap²/2 clamped noise draws contribute a spurious edge mass that
  // dwarfs the real graph at small ε (this blowup is the dK-2 approach's
  // fundamental ε cost relative to the 3-parameter SKG release, and the
  // reason Sala et al. evaluate at large ε / engineer their
  // partitioned-noise variant).
  double threshold_factor = 1.0;
};

// (ε, 0)-differentially private dK-2 series (Laplace mechanism on every
// cell of the capped degree grid — including zero cells, which is what
// makes the release private). Charges `budget`.
Result<Dk2Table> PrivatizeDk2(const Dk2Table& exact, double epsilon,
                              PrivacyBudget& budget, Rng& rng,
                              const Dk2PrivatizeOptions& options = {});

// Generates a graph approximately realizing `table` (2K-generator:
// degree-class stub matching with best-effort simplicity). Rounds cell
// counts to integers; infeasible leftovers are dropped. The result's
// JDD matches the (rounded) table closely but not exactly — standard for
// 2K construction.
Graph SampleDk2Graph(const Dk2Table& table, Rng& rng);

}  // namespace dpkron

#endif  // DPKRON_DK_DK2_H_
