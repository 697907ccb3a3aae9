// GraphSource resolution and OpenGraph: registry names, edge-list
// files, .dpkb binaries (trusted by neither backing), the sidecar cache
// option, and the registry's generator-carrying redesign.

#include "src/datasets/graph_source.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/graph/graph_io.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(GraphSourceTest, ResolvesRegistryName) {
  const auto source = ResolveGraphSource("AS20-like");
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source.value().kind, GraphSourceKind::kGenerator);
  ASSERT_NE(source.value().info, nullptr);
  EXPECT_EQ(source.value().info->paper_name, "AS20");
}

TEST(GraphSourceTest, ResolvesDpkbPathAsBinary) {
  const std::string path = TempPath("resolve.dpkb");
  ASSERT_TRUE(WriteBinaryGraph(testing::PetersenGraph(), path).ok());
  const auto source = ResolveGraphSource(path);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source.value().kind, GraphSourceKind::kBinary);
  EXPECT_EQ(source.value().info, nullptr);
  std::remove(path.c_str());

  // Same fail-fast contract as edge lists: a missing .dpkb path is a
  // resolution error, not a load failure deep inside a scenario.
  const auto missing = ResolveGraphSource("/some/dir/graph.dpkb");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(GraphSourceTest, ResolvesExistingFileAsEdgeList) {
  const std::string path = TempPath("source.edges");
  std::ofstream(path) << "0 1\n";
  const auto source = ResolveGraphSource(path);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source.value().kind, GraphSourceKind::kEdgeList);
  std::remove(path.c_str());
}

TEST(GraphSourceTest, UnknownReferenceListsRegistry) {
  const auto source = ResolveGraphSource("no-such-dataset");
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kNotFound);
  EXPECT_NE(source.status().message().find("CA-GrQC-like"),
            std::string::npos);
}

TEST(GraphSourceTest, KindNames) {
  EXPECT_STREQ(GraphSourceKindName(GraphSourceKind::kGenerator), "generator");
  EXPECT_STREQ(GraphSourceKindName(GraphSourceKind::kEdgeList), "edge-list");
  EXPECT_STREQ(GraphSourceKindName(GraphSourceKind::kBinary), "binary");
}

TEST(GraphSourceTest, GeneratorLoadMatchesMakeDataset) {
  Rng rng_a(42), rng_b(42);
  const auto loaded = OpenGraph("AS20-like", rng_a);
  ASSERT_TRUE(loaded.ok());
  const Graph direct = MakeDataset("AS20-like", rng_b);
  EXPECT_EQ(loaded.value().view().Edges(), direct.Edges());

  // There is no file to map: --mmap leaves generators in RAM.
  Rng rng_c(42);
  GraphLoadOptions mmap;
  mmap.mmap = true;
  const auto in_ram = OpenGraph("AS20-like", rng_c, mmap);
  ASSERT_TRUE(in_ram.ok());
  EXPECT_FALSE(in_ram.value().mmap_backed());
  EXPECT_EQ(in_ram.value().view().Edges(), direct.Edges());
}

TEST(GraphSourceTest, EdgeListLoadIgnoresRng) {
  const std::string path = TempPath("load.edges");
  std::ofstream(path) << "0 1\n1 2\n";
  Rng rng(7);
  const uint64_t before = [&] {
    Rng probe(7);
    return probe.NextU64();
  }();
  const auto loaded = OpenGraph(path, rng);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NumEdges(), 2u);
  EXPECT_EQ(rng.NextU64(), before);  // stream untouched by a file load
  std::remove(path.c_str());
}

TEST(GraphSourceTest, BinaryLoad) {
  const std::string path = TempPath("load.dpkb");
  ASSERT_TRUE(WriteBinaryGraph(testing::PetersenGraph(), path).ok());
  Rng rng(1);
  GraphLoadOptions mmap;
  mmap.mmap = true;
  for (const GraphLoadOptions& options : {GraphLoadOptions{}, mmap}) {
    const auto loaded = OpenGraph(path, rng, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().mmap_backed(), options.mmap);
    EXPECT_EQ(loaded.value().NumNodes(), 10u);
    EXPECT_EQ(loaded.value().NumEdges(), 15u);
  }
  std::remove(path.c_str());
}

// A user-supplied .dpkb is untrusted on both routes. An out-of-range
// adjacency word is what a kernel would index with; the mmap route must
// catch it at open (payload verification), not fault inside a kernel.
TEST(GraphSourceTest, CorruptBinaryPayloadIsInvalidArgumentOnBothRoutes) {
  const std::string path = TempPath("hostile.dpkb");
  ASSERT_TRUE(WriteBinaryGraph(testing::PetersenGraph(), path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const uint32_t hostile = 0x7ffffff0;
  std::memcpy(bytes.data() + bytes.size() - sizeof(hostile), &hostile,
              sizeof(hostile));
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  Rng rng(1);
  GraphLoadOptions mmap;
  mmap.mmap = true;
  for (const GraphLoadOptions& options : {GraphLoadOptions{}, mmap}) {
    const auto loaded = OpenGraph(path, rng, options);
    ASSERT_FALSE(loaded.ok()) << "mmap=" << options.mmap;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(GraphSourceTest, CacheOptionCreatesSidecar) {
  const std::string path = TempPath("cache_opt.edges");
  std::ofstream(path) << "0 1\n1 2\n2 0\n";
  const std::string cache = BinaryCachePath(path);
  std::remove(cache.c_str());

  Rng rng(1);
  GraphLoadOptions options;
  options.use_cache = true;
  const auto first = OpenGraph(path, rng, options);
  ASSERT_TRUE(first.ok());
  std::ifstream sidecar(cache);
  EXPECT_TRUE(sidecar.good());
  const auto second = OpenGraph(path, rng, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().view().Edges(), second.value().view().Edges());

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

TEST(GraphSourceTest, RegistryEntriesCarryGenerators) {
  for (const DatasetInfo& info : PaperDatasets()) {
    EXPECT_NE(info.generator, nullptr) << info.name;
    EXPECT_EQ(FindDataset(info.name), &info);
  }
  EXPECT_EQ(FindDataset("nope"), nullptr);
}

}  // namespace
}  // namespace dpkron
