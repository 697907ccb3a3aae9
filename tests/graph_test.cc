#include "src/graph/graph.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/graph/graph_builder.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::CompleteGraph;
using testing::MakeGraph;
using testing::PathGraph;
using testing::SameCsr;
using testing::ScopedThreads;

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphTest, SingleEdge) {
  const Graph g = MakeGraph(2, {{0, 1}});
  EXPECT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(GraphTest, BuilderDropsSelfLoops) {
  const Graph g = MakeGraph(3, {{0, 0}, {1, 1}, {0, 1}});
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphTest, BuilderDeduplicatesBothOrientations) {
  const Graph g = MakeGraph(3, {{0, 1}, {1, 0}, {0, 1}, {2, 1}, {1, 2}});
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(GraphTest, NeighborsAreSorted) {
  const Graph g = MakeGraph(6, {{3, 5}, {3, 1}, {3, 4}, {3, 0}, {3, 2}});
  const auto neighbors = g.Neighbors(3);
  ASSERT_EQ(neighbors.size(), 5u);
  for (size_t i = 1; i < neighbors.size(); ++i) {
    EXPECT_LT(neighbors[i - 1], neighbors[i]);
  }
}

TEST(GraphTest, IsolatedNodesHaveNoNeighbors) {
  const Graph g = MakeGraph(5, {{0, 1}});
  for (Graph::NodeId u = 2; u < 5; ++u) {
    EXPECT_EQ(g.Degree(u), 0u);
    EXPECT_TRUE(g.Neighbors(u).empty());
  }
}

TEST(GraphTest, ForEachEdgeVisitsEachOnceOrdered) {
  const Graph g = CompleteGraph(5);
  uint64_t count = 0;
  g.ForEachEdge([&count](Graph::NodeId u, Graph::NodeId v) {
    EXPECT_LT(u, v);
    ++count;
  });
  EXPECT_EQ(count, 10u);
}

TEST(GraphTest, EdgesMatchesForEachEdge) {
  const Graph g = PathGraph(6);
  const auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(edges[i].first, i);
    EXPECT_EQ(edges[i].second, i + 1);
  }
}

TEST(GraphTest, HasEdgeNegativeCases) {
  const Graph g = PathGraph(4);
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 3));
  EXPECT_TRUE(g.HasEdge(2, 1));
}

TEST(GraphTest, CopyIsIndependent) {
  Graph g = PathGraph(3);
  Graph copy = g;
  g = CompleteGraph(4);
  EXPECT_EQ(copy.NumNodes(), 3u);
  EXPECT_EQ(copy.NumEdges(), 2u);
}

TEST(GraphTest, FromCsrAcceptsValidInput) {
  // Triangle 0-1-2.
  const auto g = Graph::FromCsr({0, 2, 4, 6}, {1, 2, 0, 2, 0, 1});
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().NumNodes(), 3u);
  EXPECT_EQ(g.value().NumEdges(), 3u);
}

// A broken invariant is an InvalidArgument naming it and the node.
void ExpectFromCsrRejects(Graph::OffsetVector offsets,
                          Graph::AdjacencyVector adjacency,
                          const std::string& message) {
  const auto g = Graph::FromCsr(std::move(offsets), std::move(adjacency));
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(g.status().message().find(message), std::string::npos)
      << g.status().message();
}

TEST(GraphTest, FromCsrRejectsSelfLoop) {
  ExpectFromCsrRejects({0, 2, 4}, {0, 1, 0, 1}, "self-loop at node 0");
}

TEST(GraphTest, FromCsrRejectsUnsortedAdjacency) {
  ExpectFromCsrRejects({0, 2, 3, 4}, {2, 1, 0, 0},
                       "not strictly sorted at node 0");
}

TEST(GraphTest, FromCsrRejectsOutOfRangeNeighbourAndBadOffsets) {
  ExpectFromCsrRejects({0, 1, 2}, {1, 2}, "out of range at node 1");
  ExpectFromCsrRejects({0, 2, 1, 2}, {1, 2}, "not monotone at node 1");
  // A raised interior offset is caught before it indexes past the
  // adjacency.
  ExpectFromCsrRejects({0, 0x7fffffff, 2}, {1, 0},
                       "offsets out of range at node 0");
  ExpectFromCsrRejects({}, {}, "do not run from 0");
  ExpectFromCsrRejects({0, 1}, {0, 1}, "do not run from 0");
}

// Two bad nodes far enough apart to fall in different validation
// chunks: the lower one is reported, whichever defect it has and
// however many threads check the chunks.
TEST(GraphTest, FromCsrReportsTheLowestBadNodeAcrossChunks) {
  constexpr uint32_t kNodes = 1 << 16;
  constexpr uint32_t kEarly = 1000, kLate = 60000;
  // Every row is empty except kEarly's and kLate's, one entry each.
  auto offsets_with_two_rows = [] {
    Graph::OffsetVector offsets(kNodes + 1, 0);
    for (uint32_t u = kEarly + 1; u <= kNodes; ++u) offsets[u] = 1;
    for (uint32_t u = kLate + 1; u <= kNodes; ++u) offsets[u] = 2;
    return offsets;
  };
  for (const int threads : {1, 4}) {
    testing::ScopedThreads scoped(threads);
    ExpectFromCsrRejects(offsets_with_two_rows(), {kEarly, kNodes + 7},
                         "CSR self-loop at node 1000");
    ExpectFromCsrRejects(offsets_with_two_rows(), {kNodes + 7, kLate},
                         "CSR neighbour out of range at node 1000");
  }
}

TEST(GraphDeathTest, BuilderRejectsOutOfRangeNode) {
  GraphBuilder builder(3);
  EXPECT_DEATH(builder.AddEdge(0, 3), "CHECK");
}

TEST(GraphBuilderTest, ReusableAfterBuild) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  const Graph first = builder.Build();
  EXPECT_EQ(first.NumEdges(), 1u);
  builder.AddEdge(2, 3);
  const Graph second = builder.Build();
  EXPECT_EQ(second.NumEdges(), 1u);
  EXPECT_TRUE(second.HasEdge(2, 3));
  EXPECT_FALSE(second.HasEdge(0, 1));
}

TEST(GraphBuilderTest, PendingEdgesCountsRawInsertions) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  builder.AddEdge(1, 1);  // loop dropped at the door
  EXPECT_EQ(builder.PendingEdges(), 2u);
}

TEST(GraphBuilderTest, LargeStarDegrees) {
  const uint32_t n = 10001;
  GraphBuilder builder(n);
  for (uint32_t v = 1; v < n; ++v) builder.AddEdge(0, v);
  const Graph g = builder.Build();
  EXPECT_EQ(g.Degree(0), n - 1);
  EXPECT_EQ(g.NumEdges(), uint64_t{n - 1});
}


TEST(GraphDeathTest, FromPackedEdgesRejectsLoopsAndOutOfRangeKeys) {
  EXPECT_DEATH(GraphBuilder::FromPackedEdges(3, {GraphBuilder::PackEdge(1, 1)}),
               "CHECK");
  EXPECT_DEATH(GraphBuilder::FromPackedEdges(3, {GraphBuilder::PackEdge(1, 3)}),
               "CHECK");
}

// The CSR of `keys` built the plain way: std::sort + unique, then every
// edge in both orientations sorted by (row, neighbor) and counted into
// the offsets.
Graph SortReferenceCsr(uint32_t num_nodes, std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<uint64_t> both;
  for (const uint64_t key : keys) {
    both.push_back(key);
    both.push_back((key << 32) | (key >> 32));
  }
  std::sort(both.begin(), both.end());
  Graph::OffsetVector offsets(size_t{num_nodes} + 1, 0);
  Graph::AdjacencyVector adjacency;
  for (const uint64_t entry : both) {
    ++offsets[(entry >> 32) + 1];
    adjacency.push_back(static_cast<Graph::NodeId>(entry));
  }
  for (uint32_t x = 0; x < num_nodes; ++x) offsets[x + 1] += offsets[x];
  return Graph::FromCsr(std::move(offsets), std::move(adjacency)).value();
}

// `count` keys over `num_nodes` nodes in shuffled order: a hub at node 0,
// edges at the top id, and duplicates of earlier keys.
std::vector<uint64_t> ShuffledKeys(uint32_t num_nodes, size_t count,
                                   Rng& rng) {
  std::vector<uint64_t> keys;
  if (num_nodes < 2) return keys;
  while (keys.size() < count) {
    uint32_t u = 0, v = 0;
    switch (rng.NextBounded(4)) {
      case 0:  // hub
        v = 1 + static_cast<uint32_t>(rng.NextBounded(num_nodes - 1));
        break;
      case 1:  // the top id
        u = static_cast<uint32_t>(rng.NextBounded(num_nodes - 1));
        v = num_nodes - 1;
        break;
      case 2:  // a duplicate
        if (!keys.empty()) {
          keys.push_back(keys[rng.NextBounded(keys.size())]);
          continue;
        }
        [[fallthrough]];
      default:
        u = static_cast<uint32_t>(rng.NextBounded(num_nodes));
        v = static_cast<uint32_t>(rng.NextBounded(num_nodes));
        if (u == v) continue;
        if (u > v) std::swap(u, v);
    }
    keys.push_back(GraphBuilder::PackEdge(u, v));
  }
  return keys;
}

TEST(GraphBuilderTest, FromPackedEdgesMatchesSortReference) {
  // One radix digit is 11 bits: node counts on both sides of 2^11 change
  // the digit split, and 150,000 keys span three key chunks.
  Rng rng(31);
  for (const uint32_t n :
       {0u, 1u, 2u, (1u << 11) - 1, 1u << 11, (1u << 11) + 1,
        (1u << 22) + 1}) {
    SCOPED_TRACE(n);
    std::vector<uint64_t> keys = ShuffledKeys(n, 150'000, rng);
    const Graph reference = SortReferenceCsr(n, keys);
    ASSERT_EQ(reference.NumNodes(), n);
    std::vector<uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(threads);
      ScopedThreads scope(threads);
      EXPECT_TRUE(SameCsr(GraphBuilder::FromPackedEdges(n, keys), reference));
      EXPECT_TRUE(
          SameCsr(GraphBuilder::FromPackedEdges(n, sorted), reference));
    }
  }
}

TEST(GraphBuilderTest, FromPackedEdgesOfNoKeysIsEdgeless) {
  for (const uint32_t n : {0u, 1u, 5u, (1u << 11) + 1}) {
    const Graph g = GraphBuilder::FromPackedEdges(n, {});
    EXPECT_EQ(g.NumNodes(), n);
    EXPECT_EQ(g.NumEdges(), 0u);
    EXPECT_TRUE(std::all_of(g.Offsets().begin(), g.Offsets().end(),
                            [](uint32_t offset) { return offset == 0; }));
  }
}

}  // namespace
}  // namespace dpkron
