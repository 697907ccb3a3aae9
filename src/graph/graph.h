// Immutable undirected simple graph in CSR (compressed sparse row) form.
//
// This is the substrate every other dpkron component operates on: the
// "sensitive graph database" of the paper, the synthetic realizations
// sampled from SKG distributions, and the inputs to every statistic.
//
// Invariants (validated at construction, by ValidateCsrSpans below):
//   * no self-loops, no parallel edges;
//   * each undirected edge {u,v} stored twice (u→v and v→u);
//   * every adjacency list sorted ascending (enables O(log d) HasEdge and
//     linear-merge triangle counting).

#ifndef DPKRON_GRAPH_GRAPH_H_
#define DPKRON_GRAPH_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/aligned.h"
#include "src/common/status.h"

namespace dpkron {

class Graph {
 public:
  using NodeId = uint32_t;

  // CSR arenas are 64-byte (cache-line) aligned so the SIMD kernels'
  // vector loads start aligned and a row never pays an extra split line
  // at the array head. The alias keeps FromCsr call sites source-
  // compatible (braced initializer lists construct either vector type).
  template <typename T>
  using CsrVector = std::vector<T, AlignedAllocator<T, 64>>;
  using OffsetVector = CsrVector<uint32_t>;
  using AdjacencyVector = CsrVector<NodeId>;

  // An empty graph (0 nodes).
  Graph() : offsets_(1, 0) {}

  // Takes ownership of CSR arrays once ValidateCsrSpans accepts them.
  // `offsets` has num_nodes+1 entries; `adjacency` holds both directions
  // of every edge with each list sorted. Arrays that break an invariant
  // yield its InvalidArgument, so stored bytes of any origin can be
  // handed over as they are.
  static Result<Graph> FromCsr(OffsetVector offsets,
                               AdjacencyVector adjacency);

  // Hand-written only because of the atomic fingerprint memo below
  // (std::atomic is neither copyable nor movable); semantics are the
  // member-wise defaults, with the memo carried along — the fingerprint
  // is a pure function of the CSR arrays, so a copy shares it.
  Graph(const Graph& other)
      : offsets_(other.offsets_),
        adjacency_(other.adjacency_),
        fingerprint_(other.fingerprint_.load(std::memory_order_relaxed)) {}
  Graph& operator=(const Graph& other) {
    offsets_ = other.offsets_;
    adjacency_ = other.adjacency_;
    fingerprint_.store(other.fingerprint_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }
  Graph(Graph&& other) noexcept
      : offsets_(std::move(other.offsets_)),
        adjacency_(std::move(other.adjacency_)),
        fingerprint_(other.fingerprint_.load(std::memory_order_relaxed)) {
    other.fingerprint_.store(0, std::memory_order_relaxed);
  }
  Graph& operator=(Graph&& other) noexcept {
    offsets_ = std::move(other.offsets_);
    adjacency_ = std::move(other.adjacency_);
    fingerprint_.store(other.fingerprint_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    other.fingerprint_.store(0, std::memory_order_relaxed);
    return *this;
  }

  uint32_t NumNodes() const {
    return static_cast<uint32_t>(offsets_.size() - 1);
  }

  // Number of undirected edges.
  uint64_t NumEdges() const { return adjacency_.size() / 2; }

  uint32_t Degree(NodeId u) const { return offsets_[u + 1] - offsets_[u]; }

  // Sorted neighbor list of u.
  std::span<const NodeId> Neighbors(NodeId u) const {
    return {adjacency_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  // O(log deg(u)). u and v must be valid node ids.
  bool HasEdge(NodeId u, NodeId v) const;

  // Invokes f(u, v) once per undirected edge, with u < v.
  template <typename F>
  void ForEachEdge(F&& f) const {
    for (NodeId u = 0; u < NumNodes(); ++u) {
      for (NodeId v : Neighbors(u)) {
        if (u < v) f(u, v);
      }
    }
  }

  // All edges as (u, v) pairs with u < v, in lexicographic order.
  std::vector<std::pair<NodeId, NodeId>> Edges() const;

  // Raw CSR arrays. The CSR form is canonical (sorted lists, both edge
  // directions), so two Graphs are equal iff these arrays are equal —
  // the representation the binary .dpkb format serializes verbatim.
  std::span<const uint32_t> Offsets() const { return offsets_; }
  std::span<const NodeId> Adjacency() const { return adjacency_; }

  // FNV-1a digest of the CSR arrays — the graph component of StatCache
  // keys. Because the CSR form is canonical, equal fingerprints mean
  // equal graphs (up to hash collision), however the graphs were built;
  // and the value is exactly the checksum a .dpkb file of this graph
  // records. Computed lazily once per Graph object (O(N + E)) and then
  // served from the memo — several cached computations key off it per
  // scenario run, and the arrays are immutable after construction.
  uint64_t ContentFingerprint() const;

  // The memo cell behind ContentFingerprint, shared with GraphView
  // (graph_view.h): a view of this graph reads and publishes the digest
  // through the same cache, so whichever side computes it first serves
  // both. The cell is mutable state of an otherwise-immutable object,
  // hence exposable from a const Graph.
  std::atomic<uint64_t>* FingerprintMemo() const { return &fingerprint_; }

 private:
  Graph(OffsetVector offsets, AdjacencyVector adjacency)
      : offsets_(std::move(offsets)), adjacency_(std::move(adjacency)) {}

  OffsetVector offsets_;
  AdjacencyVector adjacency_;
  // Lazily memoized ContentFingerprint. 0 = not yet computed (a real
  // digest of 0 has probability 2^-64 and would merely be recomputed
  // per call — correct, just uncached). Atomic: concurrent first calls
  // race benignly, both publishing the same value.
  mutable std::atomic<uint64_t> fingerprint_{0};
};

// The one statement of the CSR invariants: non-empty offsets starting
// at 0 and ending at an even adjacency length, monotone offsets within
// it, strictly sorted in-range lists, no self-loops. FromCsr and
// MmapGraph::Open(verify_payload) both call it. The InvalidArgument
// names the broken invariant and the node it breaks at.
Status ValidateCsrSpans(std::span<const uint32_t> offsets,
                        std::span<const Graph::NodeId> adjacency);

// StatCache byte-budget accounting (common/stat_cache.h).
inline size_t ApproxCacheBytes(const Graph& graph) {
  return sizeof(graph) + graph.Offsets().size_bytes() +
         graph.Adjacency().size_bytes();
}

}  // namespace dpkron

#endif  // DPKRON_GRAPH_GRAPH_H_
