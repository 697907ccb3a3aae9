// Exhaustive edge-neighbor checks of the release mechanisms' sensitivity
// bounds: every graph on 4, 5 and 6 nodes (32,768 on 6) against each of
// its single-edge neighbors, reached by flipping one bit of the graph's
// pair bitmask. For the triangle count (TriangleSensitivityProfile) and
// the wedge and tripin counts (SmoothSensitivityWedges/Tripins) the test
// checks SS ≥ LS and SS(G) ≤ e^β·SS(G′) at several β — the β-smoothness
// Theorem 4.8's privacy proof rests on. For the sorted degree sequence it
// checks that one flip moves it by at most kDegreeSequenceSensitivity in
// L1.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "src/dp/degree_sequence.h"
#include "src/dp/smooth_sensitivity.h"
#include "src/dp/star_sensitivity.h"
#include "src/graph/graph_builder.h"

namespace dpkron {
namespace {

// 0.0094 is β = ε / (2 ln(2/δ)) at ε = 0.1, δ = 0.01.
constexpr std::array<double, 4> kBetas = {0.0094, 0.05, 0.2, 1.0};
constexpr const char* kMechanisms[] = {"triangles", "wedges", "tripins"};
constexpr size_t kNumMechanisms = 3;

struct GraphSummary {
  std::array<double, kNumMechanisms> count{};  // ∆, H, T
  std::array<std::array<double, kBetas.size()>, kNumMechanisms> ss{};
  std::vector<uint32_t> sorted_degrees;
};

using NodePairs = std::vector<std::pair<Graph::NodeId, Graph::NodeId>>;

// The graph on `n` nodes holding pairs[p] exactly when bit p of `mask` is
// set, summarized by its three counts, their smooth sensitivities at
// every β, and its sorted degree sequence.
GraphSummary Summarize(uint32_t n, const NodePairs& pairs, uint32_t mask) {
  NodePairs edges;
  std::vector<uint32_t> adjacent(n, 0);  // bitmask of each node's neighbors
  for (size_t p = 0; p < pairs.size(); ++p) {
    if ((mask >> p & 1) == 0) continue;
    const auto [i, j] = pairs[p];
    edges.emplace_back(i, j);
    adjacent[i] |= 1u << j;
    adjacent[j] |= 1u << i;
  }
  GraphSummary summary;
  for (const auto& [i, j] : edges) {
    summary.count[0] += __builtin_popcount(adjacent[i] & adjacent[j]);
  }
  summary.count[0] /= 3;  // each triangle is seen from its three edges
  for (uint32_t v = 0; v < n; ++v) {
    const double d = __builtin_popcount(adjacent[v]);
    summary.count[1] += d * (d - 1) / 2;
    summary.count[2] += d * (d - 1) * (d - 2) / 6;
    summary.sorted_degrees.push_back(__builtin_popcount(adjacent[v]));
  }
  std::sort(summary.sorted_degrees.begin(), summary.sorted_degrees.end());

  const Graph g = GraphBuilder::FromEdges(n, edges);
  const TriangleSensitivityProfile profile(g);
  for (size_t b = 0; b < kBetas.size(); ++b) {
    summary.ss[0][b] = profile.SmoothSensitivity(kBetas[b]);
    summary.ss[1][b] = SmoothSensitivityWedges(g, kBetas[b]);
    summary.ss[2][b] = SmoothSensitivityTripins(g, kBetas[b]);
  }
  return summary;
}

TEST(ExhaustiveSmoothnessTest, EveryGraphOnAtMostSixNodesAgainstEveryNeighbor) {
  constexpr double kSlack = 1e-9;
  int violations = 0;
  auto violation = [&violations](uint32_t n, uint32_t mask, uint32_t other,
                                 const std::string& what) {
    // The first few are spelled out; the count says how many there were.
    if (++violations <= 5) {
      ADD_FAILURE() << what << " on n = " << n << ", G = mask " << mask
                    << ", G' = mask " << other;
    }
  };
  for (uint32_t n = 4; n <= 6; ++n) {
    NodePairs pairs;
    for (Graph::NodeId i = 0; i < n; ++i) {
      for (Graph::NodeId j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
    }
    const uint32_t num_graphs = 1u << pairs.size();
    std::vector<GraphSummary> graphs;
    graphs.reserve(num_graphs);
    for (uint32_t mask = 0; mask < num_graphs; ++mask) {
      graphs.push_back(Summarize(n, pairs, mask));
    }

    for (uint32_t mask = 0; mask < num_graphs; ++mask) {
      const GraphSummary& g = graphs[mask];
      std::array<double, kNumMechanisms> local{};  // LS: max change by a flip
      for (size_t p = 0; p < pairs.size(); ++p) {
        const uint32_t other = mask ^ (1u << p);
        const GraphSummary& neighbor = graphs[other];
        for (size_t m = 0; m < kNumMechanisms; ++m) {
          local[m] = std::max(local[m],
                              std::fabs(g.count[m] - neighbor.count[m]));
          for (size_t b = 0; b < kBetas.size(); ++b) {
            if (g.ss[m][b] >
                std::exp(kBetas[b]) * neighbor.ss[m][b] + kSlack) {
              violation(n, mask, other,
                        std::string(kMechanisms[m]) +
                            ": SS(G) > e^β·SS(G') at β = " +
                            std::to_string(kBetas[b]));
            }
          }
        }
        uint32_t l1 = 0;
        for (uint32_t v = 0; v < n; ++v) {
          l1 += std::abs(int(g.sorted_degrees[v]) -
                         int(neighbor.sorted_degrees[v]));
        }
        if (l1 > kDegreeSequenceSensitivity) {
          violation(n, mask, other, "sorted degree sequence L1");
        }
      }
      for (size_t m = 0; m < kNumMechanisms; ++m) {
        for (size_t b = 0; b < kBetas.size(); ++b) {
          if (g.ss[m][b] + kSlack < local[m]) {
            violation(n, mask, mask,
                      std::string(kMechanisms[m]) + ": SS < LS at β = " +
                          std::to_string(kBetas[b]));
          }
        }
      }
    }
  }
  EXPECT_EQ(violations, 0);
}

}  // namespace
}  // namespace dpkron
