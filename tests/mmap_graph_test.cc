// MmapGraph — the out-of-core .dpkb backing: zero-copy round trips,
// the no-SIGBUS validation contract (truncation and corruption degrade
// to a clean Status before anything is mapped), the v3-only version
// check, concurrent readers on one mapping, GraphHandle ownership
// semantics, ReadEdgeListMapped's sidecar protocol, and the
// bit-identical-statistics contract across backings and thread counts.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/core/release.h"
#include "src/graph/graph_io.h"
#include "src/graph/node_stats.h"
#include "src/skg/sampler.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

using testing::CompleteGraph;
using testing::PetersenGraph;

// Per-test scratch file, removed (with any sidecar debris) on scope
// exit so reruns never see a previous run's bytes.
class TempFile {
 public:
  explicit TempFile(const std::string& stem)
      : path_(::testing::TempDir() + "/" + stem + "_" +
              std::to_string(::getpid())) {
    Remove();
  }
  ~TempFile() { Remove(); }
  const std::string& path() const { return path_; }

 private:
  void Remove() const {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".dpkb");
    std::filesystem::remove(path_ + ".dpkb.lock");
  }
  std::string path_;
};

// Restores the ambient pool size on scope exit (same idiom as
// parallel_test.cc) so thread-count sweeps can't leak configuration.
class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(int threads) : saved_(ParallelThreadCount()) {
    SetParallelThreadCount(threads);
  }
  ~ScopedThreadCount() { SetParallelThreadCount(saved_); }

 private:
  int saved_;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void ExpectViewEquals(GraphView actual, const Graph& expected) {
  ASSERT_EQ(actual.NumNodes(), expected.NumNodes());
  ASSERT_EQ(actual.NumEdges(), expected.NumEdges());
  EXPECT_EQ(actual.Edges(), expected.Edges());
  EXPECT_EQ(actual.ContentFingerprint(), expected.ContentFingerprint());
}

TEST(MmapGraphTest, MapsAV3FileZeroCopy) {
  const Graph g = PetersenGraph();
  TempFile file("mmap_petersen.dpkb");
  ASSERT_TRUE(WriteBinaryGraph(g, file.path()).ok());

  auto mapped = MmapGraph::Open(file.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectViewEquals(mapped.value()->view(), g);
  // The v3 sections are 64-byte aligned — the property that lets SIMD
  // kernels consume the mapping in place.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(
                mapped.value()->view().Offsets().data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(
                mapped.value()->view().Adjacency().data()) % 64, 0u);
  // Standalone file: no source stamp.
  EXPECT_EQ(mapped.value()->source_stamp().size, 0u);
  EXPECT_EQ(mapped.value()->source_stamp().checksum, 0u);
}

// The empty graph and the other degenerate shapes round-trip through
// both opens: the trusted one and the verified one every file found on
// disk goes through.
TEST(MmapGraphTest, EmptyGraphRoundTrips) {
  TempFile file("mmap_empty.dpkb");
  const Graph graphs[] = {
      Graph(),                                  // empty graph
      testing::MakeGraph(5, {{0, 1}}),          // isolated trailing nodes
      testing::StarGraph(50),
      testing::MakeGraph(1, {}),                // single isolated node
  };
  MmapOptions verify;
  verify.verify_payload = true;
  for (const Graph& g : graphs) {
    ASSERT_TRUE(WriteBinaryGraph(g, file.path()).ok());
    for (const MmapOptions& options : {MmapOptions{}, verify}) {
      const auto back = MmapGraph::Open(file.path(), options);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_TRUE(testing::SameCsr(back.value()->view(), g));
      ExpectViewEquals(back.value()->view(), g);
    }
  }
}

TEST(MmapGraphTest, MissingFileIsNotFound) {
  MmapOptions verify;
  verify.verify_payload = true;
  for (const MmapOptions& options : {MmapOptions{}, verify}) {
    auto mapped = MmapGraph::Open(
        ::testing::TempDir() + "/no_such_graph.dpkb", options);
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().code(), StatusCode::kNotFound);
  }
}

// The no-SIGBUS contract: any truncation — mid-header, mid-offsets,
// mid-adjacency, one byte short — fails validation with a clean Status
// BEFORE the file is mapped. Kernels never touch a page that isn't
// backed by the validated range.
TEST(MmapGraphTest, TruncationAnywhereFailsCleanly) {
  const Graph g = PetersenGraph();
  TempFile file("mmap_truncated.dpkb");
  ASSERT_TRUE(WriteBinaryGraph(g, file.path()).ok());
  const std::string good = ReadAll(file.path());
  ASSERT_GT(good.size(), 64u);

  MmapOptions verify;
  verify.verify_payload = true;
  const size_t cuts[] = {0, 10, 55, 64, 70, 100, good.size() - 5,
                         good.size() - 4, good.size() - 1};
  for (const size_t cut : cuts) {
    WriteAll(file.path(), good.substr(0, cut));
    for (const MmapOptions& options : {MmapOptions{}, verify}) {
      auto mapped = MmapGraph::Open(file.path(), options);
      ASSERT_FALSE(mapped.ok()) << "truncation at byte " << cut;
      EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument)
          << "truncation at byte " << cut;
    }
  }
  // Trailing garbage is an exact-size violation too, not an over-map.
  WriteAll(file.path(), good + std::string(7, '\0'));
  EXPECT_FALSE(MmapGraph::Open(file.path()).ok());
  EXPECT_FALSE(MmapGraph::Open(file.path(), verify).ok());
}

TEST(MmapGraphTest, BadMagicAndVersionFail) {
  const Graph g = PetersenGraph();
  TempFile file("mmap_header.dpkb");
  ASSERT_TRUE(WriteBinaryGraph(g, file.path()).ok());
  const std::string good = ReadAll(file.path());

  MmapOptions verify;
  verify.verify_payload = true;
  std::string bad = good;
  bad[0] = 'X';
  WriteAll(file.path(), bad);
  for (const MmapOptions& options : {MmapOptions{}, verify}) {
    const auto mapped = MmapGraph::Open(file.path(), options);
    ASSERT_FALSE(mapped.ok());
    EXPECT_NE(mapped.status().message().find("bad magic"),
              std::string::npos)
        << mapped.status().ToString();
  }

  // Only version 3 is readable: version 2 (the packed layout) fails
  // with a Status naming it, like any unknown version.
  for (const char version : {2, 99}) {
    bad = good;
    bad[8] = version;
    WriteAll(file.path(), bad);
    for (const MmapOptions& options : {MmapOptions{}, verify}) {
      const auto mapped = MmapGraph::Open(file.path(), options);
      ASSERT_FALSE(mapped.ok()) << int{version};
      EXPECT_NE(mapped.status().message().find(
                    "unsupported dpkb version " + std::to_string(version)),
                std::string::npos)
          << mapped.status().ToString();
    }
  }
}

// Interior payload corruption is invisible to the default O(header)
// open (the write-time checksum is trusted) and caught by
// verify_payload — the knob for .dpkb files of untrusted origin.
TEST(MmapGraphTest, VerifyPayloadCatchesCorruption) {
  const Graph g = CompleteGraph(9);
  TempFile file("mmap_corrupt.dpkb");
  ASSERT_TRUE(WriteBinaryGraph(g, file.path()).ok());
  std::string bytes = ReadAll(file.path());
  bytes[bytes.size() - 3] ^= 0x20;  // flip an adjacency bit
  WriteAll(file.path(), bytes);

  ASSERT_TRUE(MmapGraph::Open(file.path()).ok());  // trusted: not re-hashed

  MmapOptions verify;
  verify.verify_payload = true;
  auto rejected = MmapGraph::Open(file.path(), verify);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("dpkb checksum mismatch"),
            std::string::npos)
      << rejected.status().ToString();

  // A flipped high bit in the last adjacency word is a checksum
  // mismatch too, caught before the CSR check sees the wild id.
  ASSERT_TRUE(WriteBinaryGraph(PetersenGraph(), file.path()).ok());
  bytes = ReadAll(file.path());
  bytes[bytes.size() - 1] ^= 0x40;
  WriteAll(file.path(), bytes);
  rejected = MmapGraph::Open(file.path(), verify);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("checksum"), std::string::npos);

  // An intact file passes verify_payload.
  ASSERT_TRUE(WriteBinaryGraph(g, file.path()).ok());
  auto mapped = MmapGraph::Open(file.path(), verify);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectViewEquals(mapped.value()->view(), g);
}

TEST(MmapGraphTest, ConcurrentReadersShareOneMapping) {
  Rng rng(11);
  const Graph g = SampleSkg(Initiator2{0.9, 0.6, 0.2}, 8, rng);
  TempFile file("mmap_concurrent.dpkb");
  ASSERT_TRUE(WriteBinaryGraph(g, file.path()).ok());
  auto mapped = MmapGraph::Open(file.path());
  ASSERT_TRUE(mapped.ok());

  const uint64_t expected_triangles = TotalTriangles(ComputeNodeStats(g));
  const uint64_t expected_fingerprint = g.ContentFingerprint();
  std::vector<std::thread> readers;
  std::vector<uint64_t> triangles(8, 0);
  std::vector<uint64_t> fingerprints(8, 0);
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      const GraphView view = mapped.value()->view();
      triangles[t] = TotalTriangles(ComputeNodeStats(view));
      fingerprints[t] = view.ContentFingerprint();
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(triangles[t], expected_triangles);
    EXPECT_EQ(fingerprints[t], expected_fingerprint);
  }
}

TEST(GraphHandleTest, CarriesEitherBackingBehindOneType) {
  const GraphHandle empty;
  EXPECT_EQ(empty.NumNodes(), 0u);
  EXPECT_FALSE(empty.mmap_backed());

  const Graph g = PetersenGraph();
  const GraphHandle ram = g;  // implicit, like every scenario site
  EXPECT_FALSE(ram.mmap_backed());
  ExpectViewEquals(ram, g);  // implicit operator GraphView

  TempFile file("handle.dpkb");
  ASSERT_TRUE(WriteBinaryGraph(g, file.path()).ok());
  auto mapped = MmapGraph::Open(file.path());
  ASSERT_TRUE(mapped.ok());
  const GraphHandle out_of_core(mapped.value());
  EXPECT_TRUE(out_of_core.mmap_backed());
  ExpectViewEquals(out_of_core, g);

  // Copies share the backing — and keep it alive (the handle returned
  // from a load can outlive every other reference).
  GraphHandle copy = out_of_core;
  EXPECT_TRUE(copy.mmap_backed());
  EXPECT_EQ(copy.view().ContentFingerprint(), g.ContentFingerprint());
}

// ReadEdgeListMapped: miss parses + writes the v3 sidecar and serves
// the mapping; hit maps it verified; a source rewrite invalidates the
// stamp (content-addressed, so a same-size rewrite still misses); a
// corrupt sidecar silently rebuilds.
TEST(ReadEdgeListMappedTest, SidecarMissHitStaleAndCorrupt) {
  TempFile file("mapped_source.edges");
  WriteAll(file.path(), "0 1\n1 2\n2 3\n3 0\n");

  auto first = ReadEdgeListMapped(file.path());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first.value().mmap_backed());
  EXPECT_EQ(first.value().NumNodes(), 4u);
  EXPECT_EQ(first.value().NumEdges(), 4u);
  ASSERT_TRUE(std::filesystem::exists(file.path() + ".dpkb"));

  // Hit: same bytes, same graph, still mapped.
  auto hit = ReadEdgeListMapped(file.path());
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().mmap_backed());
  EXPECT_EQ(hit.value().view().ContentFingerprint(),
            first.value().view().ContentFingerprint());

  // Same-size rewrite: the stamp is a content checksum, not an mtime,
  // so the stale sidecar is rebuilt and the new edge appears.
  WriteAll(file.path(), "0 1\n1 2\n2 3\n3 1\n");
  auto stale = ReadEdgeListMapped(file.path());
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_TRUE(stale.value().mmap_backed());
  EXPECT_EQ(stale.value().NumEdges(), 4u);
  EXPECT_NE(stale.value().view().ContentFingerprint(),
            first.value().view().ContentFingerprint());
  GraphView stale_view = stale.value();
  EXPECT_TRUE(stale_view.HasEdge(3, 1));

  // Corrupt sidecar: rebuilt, never served.
  WriteAll(file.path() + ".dpkb", "not a dpkb file");
  auto rebuilt = ReadEdgeListMapped(file.path());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(rebuilt.value().view().ContentFingerprint(),
            stale.value().view().ContentFingerprint());
}

// The sidecar records the parse source; the mapped handle must agree
// bit-for-bit with the direct parser (the cache contract), including
// the messy-format cases the text reader tolerates.
TEST(ReadEdgeListMappedTest, AgreesWithDirectParse) {
  TempFile file("mapped_agrees.edges");
  WriteAll(file.path(),
           "# comment\r\n10 20\n20\t30\n\n30  40\r\n40 10\n10 30\n");
  auto direct = ReadEdgeList(file.path());
  ASSERT_TRUE(direct.ok());
  auto mapped = ReadEdgeListMapped(file.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectViewEquals(mapped.value(), direct.value());
}

// The acceptance bar for the whole out-of-core seam: a fixed-seed
// release computes BYTE-identical statistics whether the graph lives in
// RAM arenas or an mmap'd .dpkb, at 1, 2 and 8 threads.
TEST(MmapGraphTest, StatisticsBitIdenticalAcrossBackingsAndThreads) {
  Rng rng(2026);
  const Graph g = SampleSkg(Initiator2{0.9, 0.6, 0.2}, 9, rng);
  TempFile file("mmap_identical.dpkb");
  ASSERT_TRUE(WriteBinaryGraph(g, file.path()).ok());
  auto mapped = MmapGraph::Open(file.path());
  ASSERT_TRUE(mapped.ok());

  StatisticsOptions options;
  options.anf_trials = 8;
  options.exact_hop_plot_limit = 64;  // exercise the ANF (rng-consuming) route
  const ReleasePipeline pipeline(options);

  Rng baseline_rng(41);
  ScopedThreadCount one(1);
  const GraphStatistics baseline = pipeline.ComputeEphemeral(g, baseline_rng);
  for (const int threads : {1, 2, 8}) {
    ScopedThreadCount scope(threads);
    Rng ram_rng(41), map_rng(41);
    const GraphStatistics from_ram = pipeline.ComputeEphemeral(g, ram_rng);
    const GraphStatistics from_map =
        pipeline.ComputeEphemeral(mapped.value()->view(), map_rng);
    EXPECT_EQ(from_ram, baseline) << threads << " threads";
    EXPECT_EQ(from_map, baseline) << threads << " threads";
  }
}

}  // namespace
}  // namespace dpkron
