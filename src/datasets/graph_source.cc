#include "src/datasets/graph_source.h"

#include <filesystem>

#include "src/common/macros.h"
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

}  // namespace

Result<GraphHandle> OpenGraph(const std::string& ref, Rng& rng,
                              const GraphLoadOptions& options) {
  auto resolved = ResolveGraphSource(ref);
  if (!resolved.ok()) return resolved.status();
  const GraphSource& source = resolved.value();
  switch (source.kind) {
    case GraphSourceKind::kGenerator:
      // Synthesized in process; there is no file to map.
      return GraphHandle(source.info->generator(rng));
    case GraphSourceKind::kEdgeList:
      if (options.mmap) return ReadEdgeListMapped(source.ref);
      return InRam(options.use_cache ? ReadEdgeListCached(source.ref)
                                     : ReadEdgeList(source.ref));
    case GraphSourceKind::kBinary: {
      if (!options.mmap) return InRam(ReadBinaryGraph(source.ref));
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
