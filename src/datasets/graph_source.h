// GraphSource — the unified ingestion abstraction: every graph that
// enters the system comes from one of three source kinds, resolved from
// a single reference string.
//
//   * kGenerator — a synthetic registry dataset ("CA-GrQC-like", ...),
//     produced in-process by the entry's generator;
//   * kEdgeList  — a SNAP-style text edge list on disk, parsed by the
//     chunked parallel reader (optionally through the .dpkb sidecar
//     cache: parse once, map the binary thereafter);
//   * kBinary    — a .dpkb binary CSR file, served as a verified
//     mapping.
//
// Resolution is by the reference itself: a registered dataset name wins,
// a path ending in ".dpkb" is binary, any other existing file is an
// edge list. This is what lets the scenario engine run any registered
// scenario on an arbitrary downloaded SNAP file via --dataset.

#ifndef DPKRON_DATASETS_GRAPH_SOURCE_H_
#define DPKRON_DATASETS_GRAPH_SOURCE_H_

#include <cstdint>
#include <string>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/datasets/registry.h"
#include "src/graph/graph.h"
#include "src/graph/graph_io.h"

namespace dpkron {

enum class GraphSourceKind {
  kGenerator,  // synthetic registry dataset
  kEdgeList,   // SNAP-style text edge list file
  kBinary,     // .dpkb binary CSR file
};

// "generator" | "edge-list" | "binary".
const char* GraphSourceKindName(GraphSourceKind kind);

struct GraphSource {
  GraphSourceKind kind = GraphSourceKind::kGenerator;
  std::string ref;                    // registry name or file path
  const DatasetInfo* info = nullptr;  // registry entry (kGenerator only)
};

struct GraphLoadOptions {
  // For kEdgeList sources: serve the mapped .dpkb sidecar
  // (ReadEdgeListMapped, rebuilt if stale) instead of re-parsing the
  // text into RAM every run. Generators and .dpkb files ignore it.
  // Purely an execution strategy: both backings hash to the same
  // fingerprint, so results and cache entries are bit-identical.
  bool use_cache = false;
};

// The layout of the "graph_load" StatCache domain of generated datasets,
// mixed into their keys beside the registry name and the caller's Rng
// state. The key cannot see a generator's code, so bump this
// whenever a generator's output for a fixed seed changes (a new
// sampler, a retuned parameter) or the record layout does: otherwise a
// warm disk tier keeps serving the old graph. tests/graph_source_test.cc
// pins each registry generator's ContentFingerprint beside this value,
// so such a change fails until the bump is made.
inline constexpr uint64_t kGeneratedGraphLayout = 1;

// Classifies a dataset reference. NotFound when the reference is
// neither a registered dataset name nor an existing file; the message
// lists the registered names.
Result<GraphSource> ResolveGraphSource(const std::string& ref);

// The one way to open a graph: resolves `ref` (ResolveGraphSource) and
// materializes it behind an owning handle whose backing the source kind
// chooses — in-RAM arenas for a generator, a verified mapping for a
// .dpkb, and for an edge list an in-RAM parse or, with
// options.use_cache, its mapped sidecar. Kernels take the handle's
// GraphView either way.
//
// Generator sources consume `rng` exactly as MakeDataset does;
// file-backed sources never touch it (so a scenario's RNG stream
// protocol is unchanged by swapping a file in).
//
// With the StatCache enabled, loaded graphs are memoized in its
// "graph_load" domain and every hit shares one Graph (and its
// fingerprint memo) instead of copying it. A generated graph is keyed
// by (kGeneratedGraphLayout, name, rng state) and is durable: the entry
// carries the Rng state the generator reached, restored into `rng` on a
// memory or disk hit, and the disk record is validated like any
// untrusted CSR (a bad entry is a miss that regenerates). A cached edge
// list (options.use_cache) is keyed by its source content stamp, in
// memory only — the sidecar is its disk tier — and every hit shares one
// mapping. Stored bytes are verified once, when they are opened (the
// trust rule in graph_io.h): a standalone .dpkb and a sidecar found on
// disk have their payload checksum and CSR invariants checked
// (O(N + E)) before any kernel indexes into them; only a sidecar the
// load has just written from its own parse maps in O(header).
Result<GraphHandle> OpenGraph(const std::string& ref, Rng& rng,
                              const GraphLoadOptions& options = {});

}  // namespace dpkron

#endif  // DPKRON_DATASETS_GRAPH_SOURCE_H_
