#include "src/dk/dk2.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/common/macros.h"
#include "src/graph/graph_builder.h"

namespace dpkron {

Dk2Table Dk2Table::FromGraph(GraphView graph) {
  Dk2Table table;
  graph.ForEachEdge([&](Graph::NodeId u, Graph::NodeId v) {
    const uint32_t du = graph.Degree(u), dv = graph.Degree(v);
    const DegreePair key{std::min(du, dv), std::max(du, dv)};
    table.cells_[key] += 1.0;
    table.max_degree_ = std::max(table.max_degree_, key.second);
  });
  return table;
}

double Dk2Table::Count(uint32_t x, uint32_t y) const {
  if (x > y) std::swap(x, y);
  const auto it = cells_.find({x, y});
  return it == cells_.end() ? 0.0 : it->second;
}

void Dk2Table::Set(uint32_t x, uint32_t y, double count) {
  if (x > y) std::swap(x, y);
  if (count == 0.0) {
    cells_.erase({x, y});
    return;
  }
  cells_[{x, y}] = count;
  max_degree_ = std::max(max_degree_, y);
}

double Dk2Table::TotalEdges() const {
  double total = 0.0;
  for (const auto& [key, count] : cells_) total += count;
  return total;
}

double Dk2Table::ImpliedNodeCount(uint32_t d) const {
  DPKRON_CHECK_GT(d, 0u);
  double stubs = 0.0;
  for (const auto& [key, count] : cells_) {
    if (key.first == d) stubs += count;
    if (key.second == d) stubs += count;  // (d, d) cells counted twice
  }
  return stubs / double(d);
}

double Dk2Table::L1Distance(const Dk2Table& a, const Dk2Table& b) {
  double distance = 0.0;
  for (const auto& [key, count] : a.cells_) {
    distance += std::fabs(count - b.Count(key.first, key.second));
  }
  for (const auto& [key, count] : b.cells_) {
    if (a.cells_.find(key) == a.cells_.end()) distance += std::fabs(count);
  }
  return distance;
}

Result<Dk2Table> PrivatizeDk2(const Dk2Table& exact, double epsilon,
                              PrivacyBudget& budget, Rng& rng,
                              const Dk2PrivatizeOptions& options) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  const uint32_t cap =
      options.degree_cap > 0 ? options.degree_cap : exact.max_degree();
  if (cap == 0) {
    return Status::InvalidArgument("empty dK-2 table and no degree cap");
  }
  if (Status s = budget.Spend(epsilon, 0.0, "dk2_series (Laplace)"); !s.ok()) {
    return s;
  }
  const double sensitivity = 4.0 * double(cap) + 1.0;
  const double scale = sensitivity / epsilon;
  const double num_cells = double(cap) * double(cap + 1) / 2.0;
  const double threshold = options.threshold_factor * scale *
                           std::log(std::max(num_cells, 2.0));

  Dk2Table noisy;
  // Noise every cell of the capped grid, including empty ones — releasing
  // only occupied cells would leak which degree pairs exist.
  for (uint32_t x = 1; x <= cap; ++x) {
    for (uint32_t y = x; y <= cap; ++y) {
      double value = exact.Count(x, y) + rng.NextLaplace(scale);
      if (value < threshold) value = 0.0;
      value = std::max(value, 0.0);
      if (value > 0.0) noisy.Set(x, y, value);
    }
  }
  return noisy;
}

Graph SampleDk2Graph(const Dk2Table& table, Rng& rng) {
  // 1. Integerize cell counts and derive per-degree node budgets.
  std::map<Dk2Table::DegreePair, uint64_t> target;
  std::map<uint32_t, uint64_t> stubs_needed;  // degree -> stub count
  for (const auto& [key, count] : table.cells()) {
    const uint64_t m = static_cast<uint64_t>(std::llround(count));
    if (m == 0) continue;
    target[key] = m;
    stubs_needed[key.first] += m;
    stubs_needed[key.second] += m;
  }
  // Nodes per degree class: ceil(stubs / d) (ceil keeps every class
  // realizable; the last node of a class may end up under-filled).
  std::map<uint32_t, uint32_t> nodes_of_degree;
  uint32_t total_nodes = 0;
  for (const auto& [degree, stubs] : stubs_needed) {
    const uint32_t count =
        static_cast<uint32_t>((stubs + degree - 1) / degree);
    nodes_of_degree[degree] = count;
    total_nodes += count;
  }
  GraphBuilder builder(std::max(total_nodes, 1u));
  if (target.empty()) return builder.Build();

  // 2. Assign node-id ranges per degree class and per-node remaining
  // capacity.
  std::map<uint32_t, std::pair<uint32_t, uint32_t>> range;  // d -> [lo, hi)
  std::vector<uint32_t> capacity(total_nodes, 0);
  {
    uint32_t next = 0;
    for (const auto& [degree, count] : nodes_of_degree) {
      range[degree] = {next, next + count};
      for (uint32_t u = next; u < next + count; ++u) capacity[u] = degree;
      next += count;
    }
  }

  // 3. Greedy stub matching per cell with best-effort simplicity: pick
  // random endpoints with remaining capacity from each class; retry on
  // loops and duplicate edges a bounded number of times.
  std::unordered_set<uint64_t> placed_edges;
  auto edge_key = [](uint32_t u, uint32_t v) {
    return (uint64_t{std::min(u, v)} << 32) | std::max(u, v);
  };
  // Endpoints are drawn from the nodes of the class with the MOST
  // remaining capacity (random tie-break): balanced filling keeps nearly
  // every node at exactly its class degree, so the re-extracted JDD stays
  // close to the target.
  for (const auto& [key, m] : target) {
    const auto [x, y] = key;
    auto candidates = [&](uint32_t degree, uint32_t exclude) {
      std::vector<uint32_t> nodes;
      uint32_t best = 0;
      const auto [lo, hi] = range[degree];
      for (uint32_t u = lo; u < hi; ++u) {
        if (u == exclude || capacity[u] == 0) continue;
        if (capacity[u] > best) {
          best = capacity[u];
          nodes.clear();
        }
        if (capacity[u] == best) nodes.push_back(u);
      }
      return nodes;
    };
    for (uint64_t edge = 0; edge < m; ++edge) {
      bool placed = false;
      for (int attempt = 0; attempt < 24 && !placed; ++attempt) {
        const std::vector<uint32_t> from = candidates(x, UINT32_MAX);
        if (from.empty()) break;
        const uint32_t u = from[rng.NextBounded(from.size())];
        const std::vector<uint32_t> to = candidates(y, u);
        if (to.empty()) break;
        const uint32_t v = to[rng.NextBounded(to.size())];
        if (!placed_edges.insert(edge_key(u, v)).second) continue;
        builder.AddEdge(u, v);
        --capacity[u];
        --capacity[v];
        placed = true;
      }
      if (!placed) break;  // class exhausted; drop the remainder
    }
  }
  return builder.Build();
}

}  // namespace dpkron
