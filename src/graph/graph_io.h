// Graph ingestion I/O: SNAP-style text edge lists and the versioned
// binary CSR format (.dpkb).
//
// Text format: one "u<whitespace>v" pair per line; lines starting with
// '#' are comments; blank lines, CRLF endings, tabs and runs of spaces
// are all accepted. Node ids in the file may be arbitrary (sparse)
// uint64s — the reader densifies them to 0..n-1 preserving
// first-appearance order, exactly the preprocessing one applies to the
// real SNAP files the paper used. Malformed lines (non-numeric fields,
// ids overflowing uint64, trailing garbage) produce an InvalidArgument
// Status naming the offending line.
//
// The default parser is chunked and thread-pool-parallel: the byte
// range is split into fixed-size chunks snapped forward to newline
// boundaries (a decomposition that depends only on the bytes and the
// chunk size, never the thread count) and chunks are tokenized via the
// shared pool. Densification runs on the pool as well: each endpoint's
// global position (2 · its edge's index in chunk order + its side) is
// scattered, with its raw id, into hash shards in chunk order, so each
// shard numbers its ids by first appearance independently, and a prefix
// over the per-chunk counts of first appearances yields the same dense
// ids a serial first-appearance map would. The dense edges go straight
// to GraphBuilder::FromPackedEdges — so the resulting Graph is
// bit-identical to ParseEdgeListSerial at any thread count.
//
// Binary format (.dpkb, little-endian), the sidecar cache behind
// ReadEdgeListMapped and the out-of-core substrate behind MmapGraph.
// Version 3 ("aligned sections"), the only version read or written:
//
//   bytes  field
//   0..7   magic "DPKBCSR1"
//   8..11  version (uint32, 3)
//   12..15 reserved (uint32, 0)
//   16..23 num_nodes (uint64)
//   24..31 adjacency length (uint64, = 2·edges)
//   32..39 FNV-1a 64 checksum of the offsets + adjacency payload
//          (padding excluded) — exactly Graph::ContentFingerprint
//   40..47 source text size in bytes (uint64; 0 = standalone file)
//   48..55 FNV-1a 64 checksum of the source text (uint64; 0 =
//          standalone file). Sidecar caches record the (size, checksum)
//          stamp of the text they were parsed from, and cached loads
//          revalidate it against the current source bytes, so no
//          rewrite — same-size within mtime granularity,
//          mtime-preserving replacement — can serve a stale graph.
//   56..63 reserved (zero padding to the first section boundary)
//   64..   offsets section: (num_nodes+1) × uint32
//   ...    zero padding to the next 64-byte boundary
//   ↑64    adjacency section: len × uint32
//
// Both sections start on 64-byte boundaries, so an mmap of the file
// (page-aligned by definition) yields cache-line-aligned CSR arrays the
// SIMD kernels can consume in place — the property that makes MmapGraph
// a zero-copy load. Files of any other version (1: 48-byte header
// without the source checksum; 2: the 56-byte header with the arrays
// packed right after it) fail with a Status naming the version; the
// sidecar-cache path treats any unreadable version exactly like a stale
// cache (silent reparse + v3 rewrite), so a repo upgraded across a
// version bump never misloads an old cache.
//
// Scenarios, sweeps and the server open graphs through OpenGraph
// (src/datasets/graph_source.h), which picks the loader below from the
// source kind (and, for an edge list, GraphLoadOptions::use_cache).
//
// Trust rule: every .dpkb byte found on disk is served by one call,
// MmapGraph::Open with verify_payload — magic/version/sizes, the
// payload checksum, and the CSR invariants through ValidateCsrSpans
// (graph.h), checked once, at open — whether it is a standalone .dpkb,
// a sidecar hit, or a sidecar another process's rebuild installed. A
// truncated, corrupted or hostile file degrades to a Status (a stale
// sidecar to a rebuild), never an aborted process or a read outside
// the mapping. The one exception is a sidecar the current call has
// just written from its own parse: it maps in O(header).
//
// A mapped file is read in place for as long as a handle holds it, so
// a standalone .dpkb lives under the contract sidecars (which dpkrond
// maps by default) already do: writers rename complete files into
// place, as WriteBinaryGraph does, and never rewrite one in place.

#ifndef DPKRON_GRAPH_GRAPH_IO_H_
#define DPKRON_GRAPH_GRAPH_IO_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/file_claim.h"
#include "src/common/status.h"
#include "src/graph/graph.h"
#include "src/graph/graph_view.h"

namespace dpkron {

struct EdgeListParseOptions {
  // Target bytes per parallel chunk (boundaries snap forward to the
  // next newline). The chunk decomposition — and therefore the merged
  // edge order — depends only on this and the input, not on threads.
  size_t chunk_bytes = 1 << 20;

  // Cross-PROCESS sidecar-rebuild coordination (ReadEdgeListMapped): a
  // cache miss claims "<path>.dpkb.lock" through FileClaim
  // (file_claim.h) before parsing, so N daemons cold-starting on one
  // dataset do one parse, not N. A loser polls every lock.poll_ms,
  // re-checking the sidecar each wake (the winner's rename makes it
  // servable); a lock older than lock.stale_ms is presumed orphaned and
  // broken. No failure of the lock protocol ever fails a load.
  LockOptions lock;
};

// Reads an undirected graph from a SNAP-style edge list file
// (parallel parse of the whole file's bytes).
Result<Graph> ReadEdgeList(const std::string& path,
                           const EdgeListParseOptions& options = {});

// Parses an edge list from an in-memory buffer (same format), chunked
// over the shared thread pool.
Result<Graph> ParseEdgeList(std::string_view text,
                            const EdgeListParseOptions& options = {});

// Single-pass line-by-line reference parser. Same tokenizer, no
// chunking, and a std::unordered_map densify in file order — the oracle
// the parallel path must match bit-for-bit.
Result<Graph> ParseEdgeListSerial(std::string_view text);

// Writes `graph` as an edge list (u < v per line) with a comment header.
Status WriteEdgeList(GraphView graph, const std::string& path);

// ------------------------------------------------------ binary (.dpkb)

// Provenance stamp of the source text a sidecar cache was parsed from;
// {0, 0} for standalone .dpkb files (and never matches a real text: the
// FNV-1a checksum of any byte string is non-zero).
struct DpkbSourceStamp {
  uint64_t size = 0;      // source text bytes
  uint64_t checksum = 0;  // FNV-1a 64 of the source text

  bool operator==(const DpkbSourceStamp&) const = default;
};

// Serializes the graph's CSR arrays in the .dpkb v3 format above.
// `source` is recorded in the header (sidecar caches pass the text
// file's stamp; standalone writers leave the default {0, 0}).
Status WriteBinaryGraph(GraphView graph, const std::string& path,
                        const DpkbSourceStamp& source = {});

// ------------------------------------------------- out-of-core (mmap)

// A .dpkb v3 file mapped read-only into the address space: the CSR
// sections are consumed in place (64-byte-aligned by the v3 layout), so
// opening costs O(header) I/O and graphs larger than RAM stream under
// page-cache control instead of being materialized.
//
// Validation contract: Open always verifies magic/version/counts and
// that the file size matches the header exactly — a file truncated
// mid-CSR fails with a clean Status and is never mapped, so kernels
// cannot SIGBUS on the validated range. The payload checksum and CSR
// invariants (ValidateCsrSpans) are verified only with
// Options::verify_payload (an O(N + E) streaming read, still
// zero-copy). Every open of bytes found on disk sets it — a standalone
// .dpkb under OpenGraph, a sidecar hit — and it is the only .dpkb
// reader there is; the default, which trusts the checksum recorded at
// write time and keeps the open O(header), is left to a writer mapping
// the file it has just written.
//
// Fingerprint: the header checksum, which equals
// Graph::ContentFingerprint of the same CSR by the format contract, so
// StatCache entries are shared bit-identically with in-RAM backings.
//
// Thread safety: the mapping is immutable; any number of concurrent
// readers may hold views of one MmapGraph. The object must outlive
// every view of it (GraphHandle below carries the ownership).
struct MmapOptions {
  // Recompute the payload checksum and re-check the CSR invariants
  // before serving (full streaming read of the mapping).
  bool verify_payload = false;
};

class MmapGraph {
 public:
  using Options = MmapOptions;

  static Result<std::shared_ptr<MmapGraph>> Open(const std::string& path,
                                                 const Options& options = {});

  ~MmapGraph();
  MmapGraph(const MmapGraph&) = delete;
  MmapGraph& operator=(const MmapGraph&) = delete;

  // The zero-copy view every kernel consumes. Valid while this object
  // lives.
  GraphView view() const;

  uint32_t NumNodes() const { return view().NumNodes(); }
  uint64_t NumEdges() const { return view().NumEdges(); }
  uint64_t ContentFingerprint() const { return view().ContentFingerprint(); }

  // The header's recorded source-text stamp ({0,0} for standalone
  // files) — what lets a sidecar consumer revalidate freshness without
  // touching the payload.
  const DpkbSourceStamp& source_stamp() const { return stamp_; }

 private:
  MmapGraph() = default;

  void* map_ = nullptr;
  size_t map_len_ = 0;
  std::span<const uint32_t> offsets_;
  std::span<const Graph::NodeId> adjacency_;
  DpkbSourceStamp stamp_;
  // Seeded with the header checksum on open, so views never recompute.
  mutable std::atomic<uint64_t> fingerprint_{0};
};

// The owning handle the loading layer hands to scenarios: a graph
// backed EITHER by in-RAM arenas or by an mmap'd .dpkb, behind one
// type. Converts implicitly to GraphView, so `GraphView g = handle;`
// is the whole consumption idiom. Copies share the backing.
class GraphHandle {
 public:
  GraphHandle() = default;
  GraphHandle(Graph graph)  // NOLINT(google-explicit-constructor)
      : ram_(std::make_shared<const Graph>(std::move(graph))) {}
  // Shares a graph someone else owns (a StatCache entry): every handle
  // of it reads one CSR and one fingerprint memo, nothing is copied.
  explicit GraphHandle(std::shared_ptr<const Graph> graph)
      : ram_(std::move(graph)) {}
  explicit GraphHandle(std::shared_ptr<const MmapGraph> mapped)
      : mapped_(std::move(mapped)) {}

  GraphView view() const {
    if (ram_ != nullptr) return GraphView(*ram_);
    if (mapped_ != nullptr) return mapped_->view();
    return GraphView();
  }
  operator GraphView() const { return view(); }  // NOLINT

  uint32_t NumNodes() const { return view().NumNodes(); }
  uint64_t NumEdges() const { return view().NumEdges(); }

  // True when the payload is served from a live mapping.
  bool mmap_backed() const { return mapped_ != nullptr; }

 private:
  std::shared_ptr<const Graph> ram_;
  std::shared_ptr<const MmapGraph> mapped_;
};

// StatCache byte-budget accounting (common/stat_cache.h): the CSR the
// handle keeps alive, in RAM arenas or in a mapping.
inline size_t ApproxCacheBytes(const GraphHandle& handle) {
  const GraphView view = handle.view();
  return sizeof(handle) + view.Offsets().size_bytes() +
         view.Adjacency().size_bytes();
}

// The sidecar cache path for an edge-list file: "<path>.dpkb".
std::string BinaryCachePath(const std::string& path);

// An edge list's source text and its content stamp: what a sidecar
// must have recorded to serve in its place, and what OpenGraph keys its
// in-process memo of loaded edge lists by.
struct EdgeListSource {
  std::string bytes;
  DpkbSourceStamp stamp;
};

// Reads the whole text of `path` and stamps it.
Result<EdgeListSource> ReadEdgeListSource(const std::string& path);

// Parse-once cache for an edge list, served out-of-core: reads and
// stamps the source text, then maps "<path>.dpkb" if its recorded
// source stamp matches the current content. Freshness is
// content-addressed — timestamps play no part — so no rewrite of the
// source can be served stale. A sidecar found on disk is verified at
// open (the trust rule above); an absent, stale, corrupt or old-version
// one is rebuilt from the bytes in hand under the cross-process lock
// protocol, rewritten as v3 and mapped in O(header). If the sidecar
// cannot be (re)written (read-only dataset dir, ENOSPC), the freshly
// parsed in-RAM graph serves instead, with a warning: mmap is an
// execution strategy, never a correctness requirement, and both
// backings hash to the same fingerprint.
Result<GraphHandle> ReadEdgeListMapped(
    const std::string& path, const EdgeListParseOptions& options = {});

// The same, for a source already read by ReadEdgeListSource(path).
Result<GraphHandle> ReadEdgeListMapped(
    const std::string& path, const EdgeListSource& source,
    const EdgeListParseOptions& options = {});

}  // namespace dpkron

#endif  // DPKRON_GRAPH_GRAPH_IO_H_
