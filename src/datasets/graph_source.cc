#include "src/datasets/graph_source.h"

#include <filesystem>
#include <memory>
#include <optional>
#include <string_view>

#include "src/common/disk_cache.h"
#include "src/common/journal.h"
#include "src/common/macros.h"
#include "src/common/stat_cache.h"
#include "src/graph/graph_io.h"

namespace dpkron {

const char* GraphSourceKindName(GraphSourceKind kind) {
  switch (kind) {
    case GraphSourceKind::kGenerator:
      return "generator";
    case GraphSourceKind::kEdgeList:
      return "edge-list";
    case GraphSourceKind::kBinary:
      return "binary";
  }
  DPKRON_CHECK_MSG(false, "invalid GraphSourceKind");
  return "";
}

Result<GraphSource> ResolveGraphSource(const std::string& ref) {
  GraphSource source;
  source.ref = ref;
  if (const DatasetInfo* info = FindDataset(ref)) {
    source.kind = GraphSourceKind::kGenerator;
    source.info = info;
    return source;
  }
  std::error_code ec;
  const bool is_file = std::filesystem::is_regular_file(ref, ec);
  if (ref.ends_with(".dpkb")) {
    // Same fail-fast contract as edge lists: a typo'd binary path is a
    // resolution error, not a per-scenario load failure later.
    if (!is_file) {
      return Status::NotFound("binary graph file does not exist: " + ref);
    }
    source.kind = GraphSourceKind::kBinary;
    return source;
  }
  if (is_file) {
    source.kind = GraphSourceKind::kEdgeList;
    return source;
  }
  std::string known;
  for (const DatasetInfo& info : PaperDatasets()) {
    known += known.empty() ? info.name : ", " + info.name;
  }
  return Status::NotFound("dataset reference '" + ref +
                          "' is neither a registered dataset nor an existing"
                          " file (registered: " +
                          known + "; or pass an edge-list/.dpkb path)");
}

namespace {

Result<GraphHandle> InRam(Result<Graph> graph) {
  if (!graph.ok()) return graph.status();
  return GraphHandle(std::move(graph).value());
}

// Record: offsets, adjacency (then the end state MemoizeDraws appends).
// The bytes come off disk: Graph::FromCsr checks them, and a record
// that breaks a CSR invariant is a miss.
const CacheDomain<Graph> kGeneratedGraphDomain{
    "graph_load", kGeneratedGraphLayout,
    [](const Graph& graph, RecordBuilder& rec) {
      EncodePodVector(rec, graph.Offsets());
      EncodePodVector(rec, graph.Adjacency());
    },
    [](RecordParser& rec) -> std::optional<Graph> {
      Graph::OffsetVector offsets;
      Graph::AdjacencyVector adjacency;
      if (!DecodePodVector(rec, &offsets) ||
          !DecodePodVector(rec, &adjacency)) {
        return std::nullopt;
      }
      auto graph = Graph::FromCsr(std::move(offsets), std::move(adjacency));
      if (!graph.ok()) return std::nullopt;
      return std::move(graph).value();
    }};

Result<GraphHandle> OpenGenerated(const DatasetInfo& info, Rng& rng) {
  const std::string_view kind =
      GraphSourceKindName(GraphSourceKind::kGenerator);
  return GraphHandle(StatCache::Instance().MemoizeDraws(
      kGeneratedGraphDomain,
      CacheKey()
          .MixBytes(kind.data(), kind.size())
          .MixBytes(info.name.data(), info.name.size()),
      rng, [&] { return info.generator(rng); }));
}

// An edge list through its mapped sidecar, memoized by source content so
// a cold sweep's concurrent runs wait on one parse and warm runs share
// one mapping (verified once, when it was opened). A parse error is
// memoized too. Keying by content — not path — keeps the sidecar's
// freshness semantics: a rewritten source is a new key, never a stale
// serve. The key is (size, checksum) alone; generated graphs mix their
// source kind's name in, which keeps the two kinds apart.
Result<GraphHandle> OpenEdgeListCached(const std::string& path) {
  auto source = ReadEdgeListSource(path);
  if (!source.ok()) return source.status();
  const DpkbSourceStamp& stamp = source.value().stamp;
  return *StatCache::Instance().GetOrCompute<Result<GraphHandle>>(
      "graph_load", CacheKey().Mix(stamp.size).Mix(stamp.checksum).digest(),
      [&] { return ReadEdgeListMapped(path, source.value()); });
}

}  // namespace

Result<GraphHandle> OpenGraph(const std::string& ref, Rng& rng,
                              const GraphLoadOptions& options) {
  auto resolved = ResolveGraphSource(ref);
  if (!resolved.ok()) return resolved.status();
  const GraphSource& source = resolved.value();
  switch (source.kind) {
    case GraphSourceKind::kGenerator:
      // Synthesized in process; there is no file to map.
      return OpenGenerated(*source.info, rng);
    case GraphSourceKind::kEdgeList:
      if (options.use_cache) return OpenEdgeListCached(source.ref);
      return InRam(ReadEdgeList(source.ref));
    case GraphSourceKind::kBinary: {
      // Kernels index adjacency[] by offsets[] straight out of the
      // mapping, so an unverified hostile payload would read out of it.
      MmapOptions untrusted;
      untrusted.verify_payload = true;
      auto mapped = MmapGraph::Open(source.ref, untrusted);
      if (!mapped.ok()) return mapped.status();
      return GraphHandle(std::move(mapped).value());
    }
  }
  return Status::Internal("invalid GraphSourceKind");
}

}  // namespace dpkron
