#include "src/graph/graph_io.h"

#include <chrono>
#include <thread>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/env.h"
#include "src/common/fnv.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/graph/degree.h"
#include "src/graph/node_stats.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::FileInode;
using testing::SameCsr;
using testing::ScopedThreads;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Loads `path` through its sidecar (ReadEdgeListMapped) and reports
// whether the sidecar already on disk served it (its inode unchanged).
Result<GraphHandle> LoadThroughSidecar(
    const std::string& path, bool* hit,
    const EdgeListParseOptions& options = {}) {
  const ino_t before = FileInode(BinaryCachePath(path));
  auto loaded = ReadEdgeListMapped(path, options);
  *hit = before != 0 && FileInode(BinaryCachePath(path)) == before;
  return loaded;
}

TEST(GraphIoTest, ParsesSimpleEdgeList) {
  const auto result = ParseEdgeList("0 1\n1 2\n2 0\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumNodes(), 3u);
  EXPECT_EQ(result.value().NumEdges(), 3u);
}

TEST(GraphIoTest, SkipsCommentsAndBlankLines) {
  const auto result = ParseEdgeList(
      "# SNAP header\n# Nodes: 3 Edges: 2\n\n0\t1\n\n  # inline\n1\t2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumEdges(), 2u);
}

TEST(GraphIoTest, DensifiesSparseIds) {
  const auto result = ParseEdgeList("1000 2000\n2000 500\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumNodes(), 3u);
  EXPECT_EQ(result.value().NumEdges(), 2u);
}

TEST(GraphIoTest, DeduplicatesAndDropsLoops) {
  const auto result = ParseEdgeList("0 1\n1 0\n5 5\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumEdges(), 1u);
  EXPECT_EQ(result.value().NumNodes(), 3u);  // nodes 0, 1, 5 all interned
}

TEST(GraphIoTest, RejectsMalformedLine) {
  const auto result = ParseEdgeList("0 1\nnot numbers\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(":2"), std::string::npos);
}

TEST(GraphIoTest, EmptyInputGivesEmptyGraph) {
  const auto result = ParseEdgeList("# only comments\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumNodes(), 0u);
}

TEST(GraphIoTest, ReadMissingFileFails) {
  const auto result = ReadEdgeList("/nonexistent/path/graph.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(GraphIoTest, WriteReadRoundTrip) {
  const Graph g = testing::PetersenGraph();
  const std::string path = TempPath("petersen.txt");
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  const auto back = ReadEdgeList(path);
  ASSERT_TRUE(back.ok());
  // The reader renumbers by first appearance, so compare isomorphism-
  // safe invariants rather than literal edge lists.
  EXPECT_EQ(back.value().NumNodes(), g.NumNodes());
  EXPECT_EQ(back.value().NumEdges(), g.NumEdges());
  EXPECT_EQ(SortedDegrees(ComputeNodeStats(back.value())),
            SortedDegrees(ComputeNodeStats(g)));
  std::remove(path.c_str());
}

TEST(GraphIoTest, WriteToUnwritablePathFails) {
  EXPECT_FALSE(WriteEdgeList(Graph(), "/nonexistent/dir/out.txt").ok());
}

// ---------------------- SNAP-file hardening regressions ----------------------

TEST(GraphIoHardeningTest, CrlfLineEndings) {
  const auto result = ParseEdgeList("# header\r\n0\t1\r\n1\t2\r\n\r\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().NumNodes(), 3u);
  EXPECT_EQ(result.value().NumEdges(), 2u);
}

TEST(GraphIoHardeningTest, TabsAndMultipleSpaces) {
  const auto result = ParseEdgeList("0\t\t1\n1   2\n  3 \t 4  \n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().NumEdges(), 3u);
}

TEST(GraphIoHardeningTest, TrailingBlankLines) {
  const auto result = ParseEdgeList("0 1\n\n\n\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumEdges(), 1u);
}

TEST(GraphIoHardeningTest, NoTrailingNewline) {
  const auto result = ParseEdgeList("0 1\n1 2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumEdges(), 2u);
}

TEST(GraphIoHardeningTest, NodeIdOverflowReportsLine) {
  // 2^64 = 18446744073709551616 does not fit uint64.
  const auto result = ParseEdgeList("0 1\n3 18446744073709551616\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(":2"), std::string::npos);
  EXPECT_NE(result.status().message().find("overflow"), std::string::npos);
  // The maximum uint64 id itself is fine.
  EXPECT_TRUE(ParseEdgeList("0 18446744073709551615\n").ok());
}

TEST(GraphIoHardeningTest, NegativeIdRejectedWithLine) {
  const auto result = ParseEdgeList("# header\n0 1\n2 -7\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(":3"), std::string::npos);
}

TEST(GraphIoHardeningTest, TrailingGarbageRejected) {
  const auto result = ParseEdgeList("0 1 2\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(":1"), std::string::npos);
  EXPECT_NE(result.status().message().find("trailing"), std::string::npos);
}

TEST(GraphIoHardeningTest, MissingSecondFieldRejected) {
  const auto result = ParseEdgeList("0 1\n42\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(":2"), std::string::npos);
}

TEST(GraphIoHardeningTest, LineNumbersCountCommentsAndCrlf) {
  const auto result = ParseEdgeList("# one\r\n\r\n3 4\r\nbad line\r\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(":4"), std::string::npos);
}

TEST(GraphIoHardeningTest, SerialParserAgreesOnErrors) {
  const char* inputs[] = {"0 1 2\n", "x y\n", "1 99999999999999999999999\n"};
  for (const char* input : inputs) {
    const auto parallel = ParseEdgeList(input);
    const auto serial = ParseEdgeListSerial(input);
    ASSERT_FALSE(parallel.ok());
    ASSERT_FALSE(serial.ok());
    EXPECT_EQ(parallel.status().ToString(), serial.status().ToString());
  }
}

// --------------------- parallel parser determinism ---------------------

// A few hundred KB of mixed-content edge list with sparse ids.
std::string MessyEdgeListText() {
  Rng rng(123);
  std::string text = "# generated fixture\r\n";
  char line[64];
  for (int i = 0; i < 40000; ++i) {
    const unsigned long long u = rng.NextBounded(5000) * 911 + 3;
    const unsigned long long v = rng.NextBounded(5000) * 911 + 3;
    const int style = static_cast<int>(rng.NextBounded(5));
    switch (style) {
      case 0:
        std::snprintf(line, sizeof(line), "%llu\t%llu\n", u, v);
        break;
      case 1:
        std::snprintf(line, sizeof(line), "%llu  %llu\r\n", u, v);
        break;
      case 2:
        std::snprintf(line, sizeof(line), "  %llu %llu  \n", u, v);
        break;
      case 3:
        std::snprintf(line, sizeof(line), "# comment %d\n", i);
        break;
      default:
        std::snprintf(line, sizeof(line), "%llu\t%llu\n\n", u, v);
        break;
    }
    text += line;
  }
  return text;
}

TEST(ParallelParseTest, BitIdenticalToSerialAcrossThreadCounts) {
  const std::string text = MessyEdgeListText();
  const auto serial = ParseEdgeListSerial(text);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  EdgeListParseOptions options;
  options.chunk_bytes = 4096;  // hundreds of chunks over this input
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    ScopedThreads scope(threads);
    const auto parallel = ParseEdgeList(text, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_TRUE(SameCsr(parallel.value(), serial.value()));
  }
}

// Several MiB of edges, so the default 1 MiB chunks make several
// chunks: two hubs, both orientations of one edge, repeats, self-loops,
// sparse ids up to UINT64_MAX, and ids that differ only in their high
// bits (equal low bits, the collisions a low-bit hash would see).
std::string MultiChunkEdgeListText() {
  Rng rng(4242);
  std::vector<uint64_t> pool;
  for (uint64_t i = 0; i < 3000; ++i) {
    pool.push_back(rng.NextU64());  // sparse, any 64-bit id
    pool.push_back((i << 40) | 0x5a5a5);  // same low 40 bits
    pool.push_back(UINT64_MAX - i);  // the top of the range
    pool.push_back(i);  // small dense ids
  }
  const uint64_t hubs[2] = {UINT64_MAX, 1ull << 63};
  std::string text = "# multi-chunk fixture\n";
  char line[64];
  while (text.size() < (5u << 20)) {
    uint64_t u = pool[rng.NextBounded(pool.size())];
    uint64_t v = pool[rng.NextBounded(pool.size())];
    switch (rng.NextBounded(8)) {
      case 0:
        u = hubs[rng.NextBounded(2)];
        break;
      case 1:
        v = u;  // self-loop
        break;
      case 2:
        std::snprintf(line, sizeof(line), "%llu %llu\n",
                      static_cast<unsigned long long>(v),
                      static_cast<unsigned long long>(u));
        text += line;  // the reverse orientation, then the edge below
        break;
      default:
        break;
    }
    std::snprintf(line, sizeof(line), "%llu\t%llu\n",
                  static_cast<unsigned long long>(u),
                  static_cast<unsigned long long>(v));
    text += line;
  }
  return text;
}

TEST(ParallelParseTest, MultiChunkParseMatchesSerialOracle) {
  const std::string text = MultiChunkEdgeListText();
  ASSERT_GE(text.size(), 4u << 20);
  const auto serial = ParseEdgeListSerial(text);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial.value().NumNodes(), 10'000u);
  for (int threads : {1, 2, 3, 8}) {
    SCOPED_TRACE(threads);
    ScopedThreads scope(threads);
    const auto parallel = ParseEdgeList(text);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_TRUE(SameCsr(parallel.value(), serial.value()));
  }
}

TEST(ParallelParseTest, ChunkBoundariesNeverSplitSemantics) {
  // Every chunk size from 1 byte up must agree with the serial parse —
  // boundaries land inside lines, on '\r', on '\n', everywhere.
  const std::string text =
      "# c\r\n10 20\r\n\r\n30 40\n  50\t60\n# tail\n70 80";
  const auto serial = ParseEdgeListSerial(text);
  ASSERT_TRUE(serial.ok());
  for (size_t chunk_bytes = 1; chunk_bytes <= text.size(); ++chunk_bytes) {
    EdgeListParseOptions options;
    options.chunk_bytes = chunk_bytes;
    const auto parallel = ParseEdgeList(text, options);
    ASSERT_TRUE(parallel.ok()) << "chunk_bytes=" << chunk_bytes;
    EXPECT_TRUE(SameCsr(parallel.value(), serial.value()))
        << "chunk_bytes=" << chunk_bytes;
  }
}

TEST(ParallelParseTest, FirstAppearanceDensificationOrderPreserved) {
  // 500 appears first, then 100, then 7: dense ids must be 0, 1, 2 in
  // that order even when chunk 2 parses "7" before chunk 1 finishes.
  EdgeListParseOptions options;
  options.chunk_bytes = 4;
  const auto g = ParseEdgeList("500 100\n7 500\n", options);
  ASSERT_TRUE(g.ok());
  // Node 0 (=500) has neighbors {1 (=100), 2 (=7)}.
  ASSERT_EQ(g.value().NumNodes(), 3u);
  EXPECT_EQ(g.value().Degree(0), 2u);
  EXPECT_TRUE(g.value().HasEdge(0, 1));
  EXPECT_TRUE(g.value().HasEdge(0, 2));
  EXPECT_FALSE(g.value().HasEdge(1, 2));
}

// ----------------------------- sidecar cache -----------------------------

TEST(EdgeListCacheTest, ParseOnceThenHit) {
  const std::string path = TempPath("cached.edges");
  WriteFile(path, "# g\n0 1\n1 2\n2 0\n");
  const std::string cache = BinaryCachePath(path);
  std::remove(cache.c_str());

  bool hit = true;
  const auto first = LoadThroughSidecar(path, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);  // first load parses the text
  EXPECT_TRUE(std::filesystem::exists(cache));

  const auto second = LoadThroughSidecar(path, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);  // second load served from the sidecar
  EXPECT_TRUE(SameCsr(first.value(), second.value()));

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

TEST(EdgeListCacheTest, StaleCacheIsRebuilt) {
  const std::string path = TempPath("stale.edges");
  const std::string cache = BinaryCachePath(path);
  WriteFile(path, "0 1\n");
  bool hit = false;
  ASSERT_TRUE(LoadThroughSidecar(path, &hit).ok());

  // New source content; force the sidecar visibly older than the
  // source (filesystem timestamps can be too coarse to rely on).
  WriteFile(path, "0 1\n1 2\n");
  std::filesystem::last_write_time(
      cache,
      std::filesystem::last_write_time(path) - std::chrono::seconds(10));

  const auto refreshed = LoadThroughSidecar(path, &hit);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(refreshed.value().NumEdges(), 2u);

  // The rebuild rewrote the sidecar: next load hits it.
  const auto again = LoadThroughSidecar(path, &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.value().NumEdges(), 2u);

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

TEST(EdgeListCacheTest, MtimePreservingSourceReplacementDetected) {
  // cp -p / rsync -t style replacement: new content whose timestamp is
  // OLDER than the sidecar. The recorded source size catches it.
  const std::string path = TempPath("preserved.edges");
  const std::string cache = BinaryCachePath(path);
  WriteFile(path, "0 1\n");
  bool hit = false;
  ASSERT_TRUE(LoadThroughSidecar(path, &hit).ok());

  WriteFile(path, "0 1\n1 2\n2 3\n");
  std::filesystem::last_write_time(
      path,
      std::filesystem::last_write_time(cache) - std::chrono::seconds(10));

  const auto replaced = LoadThroughSidecar(path, &hit);
  ASSERT_TRUE(replaced.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(replaced.value().NumEdges(), 3u);

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

TEST(EdgeListCacheTest, SameSizeSameSecondRewriteDetected) {
  // THE staleness hole the content checksum closes: the source is
  // rewritten with the same byte count and a timestamp the filesystem
  // cannot distinguish from the cache write's. Every mtime/size
  // heuristic passes; only the recorded source checksum can tell the
  // contents apart. The mtimes are pinned equal to make the worst case
  // deterministic rather than racing the clock granularity.
  const std::string path = TempPath("same_size.edges");
  const std::string cache = BinaryCachePath(path);
  WriteFile(path, "0 1\n0 2\n");
  bool hit = false;
  ASSERT_TRUE(LoadThroughSidecar(path, &hit).ok());

  WriteFile(path, "0 1\n0 3\n");  // same size, different content
  std::filesystem::last_write_time(path,
                                   std::filesystem::last_write_time(cache));

  const auto rewritten = LoadThroughSidecar(path, &hit);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_FALSE(hit);
  // Nodes 0, 1, 3 — the "3" proves the new content was parsed.
  EXPECT_EQ(rewritten.value().NumNodes(), 3u);
  EXPECT_EQ(rewritten.value().NumEdges(), 2u);
  EXPECT_EQ(rewritten.value().view().Degree(0), 2u);

  // The rebuilt sidecar serves the new content from now on.
  const auto again = LoadThroughSidecar(path, &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(hit);
  EXPECT_TRUE(SameCsr(again.value(), rewritten.value()));

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

TEST(EdgeListCacheTest, OldVersionSidecarReparsedSilently) {
  // Sidecars left over from before a format bump: the version check
  // must classify them as stale — silent reparse + v3 rewrite, then a
  // hit — and never misload them.
  const std::string path = TempPath("old_version.edges");
  const std::string cache = BinaryCachePath(path);
  const std::string text = "0 1\n1 2\n";
  WriteFile(path, text);
  const auto graph = ParseEdgeListSerial(text);
  ASSERT_TRUE(graph.ok());
  MmapOptions verify;
  verify.verify_payload = true;
  const std::string offsets(
      reinterpret_cast<const char*>(graph.value().Offsets().data()),
      graph.value().Offsets().size_bytes());
  const std::string adjacency(
      reinterpret_cast<const char*>(graph.value().Adjacency().data()),
      graph.value().Adjacency().size_bytes());

  // Version 1: 48-byte header (magic, version 1, counts, payload
  // checksum — any value, the version check fires first — and the
  // recorded source size), then the packed CSR payload.
  std::string v1(48, '\0');
  const uint32_t version = 1;
  const uint64_t num_nodes = graph.value().NumNodes();
  const uint64_t adjacency_len = graph.value().Adjacency().size();
  const uint64_t source_size = text.size();
  std::memcpy(v1.data(), "DPKBCSR1", 8);
  std::memcpy(v1.data() + 8, &version, sizeof(version));
  std::memcpy(v1.data() + 16, &num_nodes, sizeof(num_nodes));
  std::memcpy(v1.data() + 24, &adjacency_len, sizeof(adjacency_len));
  std::memcpy(v1.data() + 40, &source_size, sizeof(source_size));
  v1 += offsets + adjacency;

  // Version 2: the current 56-byte header with a matching source stamp
  // and checksum, the arrays packed right after it. Only the version
  // makes it stale.
  const DpkbSourceStamp stamp{text.size(),
                              Fnv1a64Words(text.data(), text.size())};
  ASSERT_TRUE(WriteBinaryGraph(graph.value(), cache, stamp).ok());
  std::string v2 = ReadFile(cache).substr(0, 56);
  v2[8] = 2;
  v2 += offsets + adjacency;

  for (const std::string& old : {v1, v2}) {
    SCOPED_TRACE(old.size() == v1.size() ? "v1" : "v2");
    WriteFile(cache, old);
    const auto direct = MmapGraph::Open(cache, verify);
    ASSERT_FALSE(direct.ok());
    EXPECT_NE(direct.status().message().find("version"), std::string::npos);

    bool hit = true;
    const auto result = LoadThroughSidecar(path, &hit);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(hit);
    EXPECT_TRUE(SameCsr(result.value(), graph.value()));

    // The sidecar was rewritten in place as v3: it now loads and hits.
    EXPECT_EQ(ReadFile(cache)[8], 3);
    EXPECT_TRUE(MmapGraph::Open(cache, verify).ok());
    const auto upgraded = LoadThroughSidecar(path, &hit);
    ASSERT_TRUE(upgraded.ok());
    EXPECT_TRUE(hit);
  }

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

TEST(BinaryGraphTest, SourceStampRoundTrips) {
  const std::string path = TempPath("stamped.dpkb");
  const DpkbSourceStamp stamp{123, 0xDEADBEEFCAFEF00DULL};
  ASSERT_TRUE(WriteBinaryGraph(testing::PetersenGraph(), path, stamp).ok());
  const auto back = MmapGraph::Open(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()->source_stamp(), stamp);
  std::remove(path.c_str());
}

TEST(EdgeListCacheTest, CorruptCacheFallsBackToParse) {
  const std::string path = TempPath("corrupt_cache.edges");
  const std::string cache = BinaryCachePath(path);
  WriteFile(path, "0 1\n1 2\n");
  WriteFile(cache, "garbage, not a dpkb file");
  std::filesystem::last_write_time(
      cache,
      std::filesystem::last_write_time(path) + std::chrono::seconds(10));

  bool hit = true;
  const auto result = LoadThroughSidecar(path, &hit);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(hit);
  EXPECT_EQ(result.value().NumEdges(), 2u);

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

TEST(EdgeListCacheTest, MissingSourceFailsEvenWithCache) {
  const std::string path = TempPath("deleted.edges");
  WriteFile(path, "0 1\n");
  bool hit = false;
  ASSERT_TRUE(LoadThroughSidecar(path, &hit).ok());
  std::remove(path.c_str());
  const auto result = LoadThroughSidecar(path, &hit);
  EXPECT_FALSE(result.ok());
  std::remove(BinaryCachePath(path).c_str());
}

// ------------------- full ingestion round-trip property -------------------

// Edge list ↔ Graph ↔ binary: serial parse, parallel parse (2 and 8
// threads), a binary round-trip and a cache reload must all produce
// bit-identical CSR arrays.
TEST(IngestionRoundTripTest, AllRoutesProduceIdenticalCsr) {
  const std::string inputs[] = {
      "",                                       // empty
      "# only\r\n# comments\n",                 // no edges at all
      "1000000 2\n2 999999999999\n7 1000000\n", // sparse 64-bit ids
      MessyEdgeListText(),                      // big mixed fixture
  };
  int case_index = 0;
  for (const std::string& text : inputs) {
    SCOPED_TRACE(case_index++);
    const auto serial = ParseEdgeListSerial(text);
    ASSERT_TRUE(serial.ok());
    const Graph& reference = serial.value();

    EdgeListParseOptions options;
    options.chunk_bytes = 512;
    for (int threads : {2, 8}) {
      ScopedThreads scope(threads);
      const auto parallel = ParseEdgeList(text, options);
      ASSERT_TRUE(parallel.ok());
      EXPECT_TRUE(SameCsr(parallel.value(), reference));
    }

    const std::string path = TempPath("roundtrip_prop.edges");
    WriteFile(path, text);
    const std::string cache = BinaryCachePath(path);
    std::remove(cache.c_str());
    bool hit = false;
    const auto parsed = LoadThroughSidecar(path, &hit);
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(hit);
    EXPECT_TRUE(SameCsr(parsed.value(), reference));
    const auto reloaded = LoadThroughSidecar(path, &hit);
    ASSERT_TRUE(reloaded.ok());
    EXPECT_TRUE(hit);
    EXPECT_TRUE(SameCsr(reloaded.value(), reference));
    std::remove(path.c_str());
    std::remove(cache.c_str());
  }
}

// ------------------------- cache-reload speedup -------------------------

// The acceptance gate for the binary cache: reloading a ≥1M-edge graph
// from the .dpkb sidecar must be ≥10× faster than the text parse it
// replaces (≥3× in unoptimized/sanitizer builds, where the relative
// cost of the two paths shifts).
TEST(IngestionPerfTest, BinaryCacheReloadBeatsTextParse) {
  Rng rng(2024);
  const uint32_t n = 1u << 18;
  std::string text = "# perf fixture\n";
  text.reserve(18u << 20);
  char line[48];
  size_t edges = 0;
  while (edges < 1'050'000) {
    const uint64_t u = rng.NextBounded(n);
    const uint64_t v = rng.NextBounded(n);
    if (u == v) continue;
    std::snprintf(line, sizeof(line), "%llu\t%llu\n",
                  static_cast<unsigned long long>(u * 31 + 1),
                  static_cast<unsigned long long>(v * 31 + 1));
    text += line;
    ++edges;
  }
  const std::string path = TempPath("perf.edges");
  WriteFile(path, text);
  const std::string cache = BinaryCachePath(path);
  std::remove(cache.c_str());

  using Clock = std::chrono::steady_clock;
  auto start = Clock::now();
  bool hit = true;
  const auto parsed = LoadThroughSidecar(path, &hit);
  const double parse_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  ASSERT_TRUE(parsed.ok());
  ASSERT_FALSE(hit);
  ASSERT_GE(parsed.value().NumEdges(), 1'000'000u);

  // Best of three reloads: the gate measures the cache path itself,
  // not scheduler noise.
  double reload_seconds = 1e9;
  for (int i = 0; i < 3; ++i) {
    start = Clock::now();
    const auto reloaded = LoadThroughSidecar(path, &hit);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    ASSERT_TRUE(reloaded.ok());
    ASSERT_TRUE(hit);
    ASSERT_EQ(reloaded.value().NumEdges(), parsed.value().NumEdges());
    reload_seconds = std::min(reload_seconds, seconds);
  }

#ifdef NDEBUG
  const double required_speedup = 10.0;
#else
  const double required_speedup = 3.0;
#endif
  EXPECT_GE(parse_seconds / reload_seconds, required_speedup)
      << "text parse " << parse_seconds << "s, cache reload "
      << reload_seconds << "s";

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

// ---------------------------------------------- fault-injected I/O

TEST(EdgeListCacheTest, SidecarWriteFailureDegradesToWarningPlusParse) {
  // ENOSPC while writing the .dpkb sidecar must not fail a load whose
  // parse already succeeded: warn, serve the in-memory graph, and leave
  // no half-written cache behind for the next load to trust.
  const std::string path = TempPath("cache_enospc.edges");
  WriteFile(path, "# g\n0 1\n1 2\n2 0\n");
  const std::string cache = BinaryCachePath(path);
  std::remove(cache.c_str());

  FaultInjectionEnv env;
  ScopedEnvOverride scope(&env);
  env.FailWrites(/*after=*/1,
                 Status::ResourceExhausted("No space left on device"));
  bool hit = true;
  const auto parsed = LoadThroughSidecar(path, &hit);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(hit);
  EXPECT_EQ(parsed.value().NumNodes(), 3u);
  EXPECT_EQ(parsed.value().NumEdges(), 3u);
  // The failed write cleaned up: no sidecar, no stray temp file.
  EXPECT_FALSE(std::filesystem::exists(cache));

  // Once space is back the next load parses again AND rebuilds the
  // sidecar, so the one after that is a cache hit.
  env.ClearFaults();
  const auto rebuilt = LoadThroughSidecar(path, &hit);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(hit);
  EXPECT_TRUE(std::filesystem::exists(cache));
  const auto served = LoadThroughSidecar(path, &hit);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(hit);
  EXPECT_TRUE(SameCsr(parsed.value(), served.value()));

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

TEST(EdgeListCacheTest, SidecarSurvivesCrashRightAfterWrite) {
  // WriteBinaryGraph syncs the temp file BEFORE renaming it into place,
  // so a kill -9 immediately after a cached load leaves a valid sidecar
  // — never the renamed-but-empty file rename-without-fsync produces.
  const std::string path = TempPath("cache_crash.edges");
  {
    // Written through the REAL env: the source file predates the
    // "process" whose crash we simulate.
    WriteFile(path, "# g\n0 1\n1 2\n2 0\n");
  }
  const std::string cache = BinaryCachePath(path);
  std::remove(cache.c_str());

  FaultInjectionEnv env;
  ScopedEnvOverride scope(&env);
  bool hit = true;
  ASSERT_TRUE(LoadThroughSidecar(path, &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(std::filesystem::exists(cache));

  env.DropUnsyncedData();  // kill -9 + power cut

  MmapOptions verify;
  verify.verify_payload = true;
  const auto recovered = MmapGraph::Open(cache, verify);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const auto cached = LoadThroughSidecar(path, &hit);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(hit);  // the surviving sidecar serves the load
  EXPECT_TRUE(SameCsr(recovered.value()->view(), cached.value()));

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

TEST(GraphIoTest, WriteEdgeListIsAtomicUnderCrash) {
  // WriteEdgeList goes through WriteFileDurable: after a crash the
  // destination either does not exist or holds the complete file.
  const std::string path = TempPath("atomic_write.edges");
  std::remove(path.c_str());
  FaultInjectionEnv env;
  ScopedEnvOverride scope(&env);
  ASSERT_TRUE(WriteEdgeList(testing::PathGraph(4), path).ok());
  env.DropUnsyncedData();
  const auto reloaded = ReadEdgeList(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().NumNodes(), 4u);
  EXPECT_EQ(reloaded.value().NumEdges(), 3u);
  std::remove(path.c_str());
}

// ------------------------------------------- sidecar rebuild locking

TEST(SidecarLockTest, RebuildLockIsTakenAndRemovedAroundParse) {
  const std::string path = TempPath("lock_normal.edges");
  WriteFile(path, "# lock_normal\n0 1\n1 2\n");
  const std::string cache = BinaryCachePath(path);
  const std::string lock = cache + ".lock";
  std::remove(cache.c_str());
  std::remove(lock.c_str());

  bool hit = true;
  const auto loaded = LoadThroughSidecar(path, &hit);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(hit);
  EXPECT_TRUE(std::filesystem::exists(cache));
  // The advisory lock must not outlive the rebuild it guarded.
  EXPECT_FALSE(std::filesystem::exists(lock));

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

TEST(SidecarLockTest, WaiterServesSidecarInstalledByLockHolder) {
  const std::string path = TempPath("lock_wait.edges");
  const std::string text = "# lock_wait\n0 1\n1 2\n2 3\n";
  WriteFile(path, text);
  const std::string cache = BinaryCachePath(path);
  const std::string lock = cache + ".lock";
  std::remove(cache.c_str());

  // Another process "holds" the rebuild lock...
  WriteFile(lock, "");
  // ...and, while this loader polls, installs the sidecar (atomic
  // rename) and releases. Install-before-release is the protocol.
  ino_t installed = 0;
  std::thread winner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const auto parsed = ParseEdgeList(text);
    ASSERT_TRUE(parsed.ok());
    const DpkbSourceStamp stamp{text.size(),
                                Fnv1a64Words(text.data(), text.size())};
    ASSERT_TRUE(WriteBinaryGraph(parsed.value(), cache, stamp).ok());
    installed = FileInode(cache);
    std::remove(lock.c_str());
  });

  EdgeListParseOptions options;
  options.lock.poll_ms = 5;
  options.lock.stale_ms = 10000;  // far beyond the winner's 60ms
  const auto loaded = ReadEdgeListMapped(path, options);
  winner.join();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The waiter was served by the winner's sidecar, not a rebuild of its
  // own — one parse total, which is the point of the lock.
  EXPECT_TRUE(loaded.value().mmap_backed());
  EXPECT_EQ(FileInode(cache), installed);
  EXPECT_FALSE(std::filesystem::exists(lock));

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

TEST(SidecarLockTest, OrphanedLockIsBrokenAfterStaleTimeout) {
  const std::string path = TempPath("lock_stale.edges");
  WriteFile(path, "# lock_stale\n0 1\n1 2\n");
  const std::string cache = BinaryCachePath(path);
  const std::string lock = cache + ".lock";
  std::remove(cache.c_str());

  // A crashed holder left its lock behind; nobody will ever release it.
  WriteFile(lock, "");

  EdgeListParseOptions options;
  options.lock.poll_ms = 2;
  options.lock.stale_ms = 30;
  bool hit = true;
  const auto loaded = LoadThroughSidecar(path, &hit, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(hit);  // the takeover parsed the text itself
  EXPECT_EQ(loaded.value().NumEdges(), 2u);
  EXPECT_TRUE(std::filesystem::exists(cache));   // and rebuilt the cache
  EXPECT_FALSE(std::filesystem::exists(lock));   // and cleaned up

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

}  // namespace
}  // namespace dpkron
