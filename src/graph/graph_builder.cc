#include "src/graph/graph_builder.h"

#include <algorithm>
#include <bit>
#include <initializer_list>

#include "src/common/macros.h"
#include "src/common/parallel.h"

namespace dpkron {
namespace {

// Widest radix digit: 2^11 counters per key chunk keep a pass's
// histogram and its scatter's write streams cache-resident.
constexpr int kMaxDigitBits = 11;
// Rows per pool chunk of the fill: hub rows skew per-row work, and the
// pool's dynamic chunk claiming is the load balancer.
constexpr size_t kRowGrain = 2048;

// Keys per pool chunk of every pass over a key array. A function of the
// key count alone (never the thread count), so every histogram, offset
// and scatter below is a pure function of the keys; capped at 512
// chunks so the per-chunk histograms stay at most 8 MiB.
size_t KeyGrain(size_t num_keys) {
  return std::max<size_t>(size_t{1} << 16, (num_keys + 511) / 512);
}

// One stable counting pass of `keys` on the `bits`-wide digit at
// `shift`, into `out` (already sized like `keys`). Returns false, and
// writes nothing, when every key has the same digit: the pass would be
// the identity.
bool RadixPass(const std::vector<uint64_t>& keys, std::vector<uint64_t>* out,
               int shift, int bits) {
  const size_t m = keys.size();
  const size_t grain = KeyGrain(m);
  const size_t chunks = ParallelChunkCount(m, grain);
  const size_t buckets = size_t{1} << bits;
  const uint64_t mask = buckets - 1;
  std::vector<size_t> cursors(chunks * buckets, 0);
  ParallelForChunks(m, grain, [&](const ParallelChunk& chunk) {
    size_t* count = cursors.data() + chunk.index * buckets;
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      ++count[(keys[i] >> shift) & mask];
    }
  });
  // Exclusive prefix in (digit, chunk) order: chunk c's keys of digit d
  // land after every smaller digit and after the digit-d keys of chunks
  // before c, which is what makes the pass stable.
  size_t next = 0;
  for (size_t d = 0; d < buckets; ++d) {
    size_t total = 0;
    for (size_t c = 0; c < chunks; ++c) total += cursors[c * buckets + d];
    if (total == m) return false;
    for (size_t c = 0; c < chunks; ++c) {
      size_t& cursor = cursors[c * buckets + d];
      const size_t count = cursor;
      cursor = next;
      next += count;
    }
  }
  ParallelForChunks(m, grain, [&](const ParallelChunk& chunk) {
    size_t* cursor = cursors.data() + chunk.index * buckets;
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      const uint64_t key = keys[i];
      (*out)[cursor[(key >> shift) & mask]++] = key;
    }
  });
  return true;
}

// Stable LSD radix sort of `keys` on the low `bits` bits of each field
// starting at the given shifts (least significant field first), in
// digits of at most kMaxDigitBits. `scratch` is the ping-pong buffer.
void RadixSort(std::vector<uint64_t>* keys, std::vector<uint64_t>* scratch,
               std::initializer_list<int> field_shifts, int bits) {
  if (bits == 0) return;
  const int digits = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int width = (bits + digits - 1) / digits;
  scratch->resize(keys->size());
  for (const int shift : field_shifts) {
    for (int low = 0; low < bits; low += width) {
      if (RadixPass(*keys, scratch, shift + low, std::min(width, bits - low))) {
        keys->swap(*scratch);
      }
    }
  }
}

// starts[x] = index of the first key whose high half (its row) is at
// least x, for every x in [0, num_nodes], over keys sorted by row. Key
// i owns the x in (row[i-1], row[i]] (the end owns (row[m-1], n]), so
// every entry is written exactly once.
std::vector<uint32_t> RowStarts(const std::vector<uint64_t>& keys,
                                uint32_t num_nodes) {
  const size_t m = keys.size();
  std::vector<uint32_t> starts(size_t{num_nodes} + 1);
  ParallelForChunks(m + 1, KeyGrain(m + 1), [&](const ParallelChunk& chunk) {
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      const uint64_t first = i == 0 ? 0 : (keys[i - 1] >> 32) + 1;
      const uint64_t last = i == m ? num_nodes : keys[i] >> 32;
      for (uint64_t x = first; x <= last; ++x) {
        starts[x] = static_cast<uint32_t>(i);
      }
    }
  });
  return starts;
}

}  // namespace

GraphBuilder::GraphBuilder(uint32_t num_nodes) : num_nodes_(num_nodes) {}

void GraphBuilder::AddEdge(Graph::NodeId u, Graph::NodeId v) {
  DPKRON_CHECK_LT(u, num_nodes_);
  DPKRON_CHECK_LT(v, num_nodes_);
  if (u == v) return;  // Simple graph: ignore loops at the door.
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::Build() {
  std::vector<uint64_t> keys;
  keys.reserve(edges_.size());
  for (const auto& [u, v] : edges_) {
    keys.push_back(PackEdge(u, v));
  }
  edges_.clear();
  return FromPackedEdges(num_nodes_, std::move(keys));
}

Graph GraphBuilder::FromEdges(
    uint32_t num_nodes,
    const std::vector<std::pair<Graph::NodeId, Graph::NodeId>>& edges) {
  GraphBuilder builder(num_nodes);
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  return builder.Build();
}

Graph GraphBuilder::FromPackedEdges(uint32_t num_nodes,
                                    std::vector<uint64_t> keys) {
  // One validating pass that also notes whether each chunk continues the
  // order of the one before: the exact SKG sampler and in-order AddEdge
  // calls arrive sorted and skip the key sort.
  const size_t grain = KeyGrain(keys.size());
  std::vector<char> in_order(ParallelChunkCount(keys.size(), grain));
  ParallelForChunks(keys.size(), grain, [&](const ParallelChunk& chunk) {
    bool sorted =
        chunk.begin == 0 || keys[chunk.begin - 1] <= keys[chunk.begin];
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      const auto u = static_cast<Graph::NodeId>(keys[i] >> 32);
      const auto v = static_cast<Graph::NodeId>(keys[i]);
      DPKRON_CHECK_LT(u, v);
      DPKRON_CHECK_LT(v, num_nodes);
      if (i > chunk.begin && keys[i - 1] > keys[i]) sorted = false;
    }
    in_order[chunk.index] = sorted;
  });
  // Only the bits a node id can set take part in the sorts.
  const int bits = num_nodes > 1 ? std::bit_width(num_nodes - 1u) : 0;
  std::vector<uint64_t> scratch;
  if (std::find(in_order.begin(), in_order.end(), 0) != in_order.end()) {
    RadixSort(&keys, &scratch, {0, 32}, bits);
  }
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const size_t m = keys.size();
  // The offsets are uint32: 2·edges must fit.
  DPKRON_CHECK_LE(m, size_t{UINT32_MAX} / 2);

  // The transposed keys (v << 32) | u, taken in (u, v) order; a stable
  // sort on v alone leaves them in (v, u) order.
  std::vector<uint64_t> transposed(m);
  ParallelForChunks(m, grain, [&](const ParallelChunk& chunk) {
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      transposed[i] = (keys[i] << 32) | (keys[i] >> 32);
    }
  });
  RadixSort(&transposed, &scratch, {32}, bits);
  std::vector<uint64_t>().swap(scratch);

  // Row x is its transposed span (every neighbor below x, ascending)
  // followed by its forward span (every neighbor above x, ascending), so
  // each row is written sorted and rows fill independently.
  const std::vector<uint32_t> below = RowStarts(transposed, num_nodes);
  const std::vector<uint32_t> above = RowStarts(keys, num_nodes);
  // 64-byte-aligned CSR arenas (Graph::CsrVector): the contract the
  // SIMD kernels' aligned loads rely on.
  Graph::OffsetVector offsets(size_t{num_nodes} + 1);
  Graph::AdjacencyVector adjacency(2 * m);
  ParallelForChunks(num_nodes, kRowGrain, [&](const ParallelChunk& chunk) {
    for (size_t x = chunk.begin; x < chunk.end; ++x) {
      offsets[x] = below[x] + above[x];
      Graph::NodeId* out = adjacency.data() + offsets[x];
      for (uint32_t j = below[x]; j < below[x + 1]; ++j) {
        *out++ = static_cast<Graph::NodeId>(transposed[j]);
      }
      for (uint32_t j = above[x]; j < above[x + 1]; ++j) {
        *out++ = static_cast<Graph::NodeId>(keys[j]);
      }
    }
  });
  offsets[num_nodes] = static_cast<uint32_t>(2 * m);
  // A builder bug is a broken invariant of the program, not bad input:
  // value() aborts with the validator's message.
  return Graph::FromCsr(std::move(offsets), std::move(adjacency)).value();
}

}  // namespace dpkron
