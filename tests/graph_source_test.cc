// GraphSource resolution and OpenGraph: registry names, edge-list
// files, .dpkb binaries (trusted by neither backing), the sidecar cache
// option, the registry's generator-carrying redesign, and the
// "graph_load" StatCache entries (generated graphs durable, with their
// Rng replay; hostile disk entries regenerate; generators pinned).

#include "src/datasets/graph_source.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/disk_cache.h"
#include "src/common/journal.h"
#include "src/common/rng.h"
#include "src/common/stat_cache.h"
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

  // There is no file to map: generators stay in RAM whatever the
  // options say.
  EXPECT_FALSE(loaded.value().mmap_backed());
  Rng rng_c(42);
  GraphLoadOptions use_cache;
  use_cache.use_cache = true;
  const auto in_ram = OpenGraph("AS20-like", rng_c, use_cache);
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

// A standalone .dpkb has one backing, a verified mapping, whatever the
// options say (use_cache concerns edge lists only).
TEST(GraphSourceTest, BinaryLoad) {
  const std::string path = TempPath("load.dpkb");
  ASSERT_TRUE(WriteBinaryGraph(testing::PetersenGraph(), path).ok());
  Rng rng(1);
  GraphLoadOptions use_cache;
  use_cache.use_cache = true;
  for (const GraphLoadOptions& options : {GraphLoadOptions{}, use_cache}) {
    const auto loaded = OpenGraph(path, rng, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(loaded.value().mmap_backed());
    EXPECT_EQ(loaded.value().NumNodes(), 10u);
    EXPECT_EQ(loaded.value().NumEdges(), 15u);
  }
  std::remove(path.c_str());
}

// A user-supplied .dpkb is untrusted. An out-of-range adjacency word is
// what a kernel would index with; the one route, a verified mapping,
// must catch it at open, not fault inside a kernel — with or without
// --dataset-cache.
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
  GraphLoadOptions use_cache;
  use_cache.use_cache = true;
  for (const GraphLoadOptions& options : {GraphLoadOptions{}, use_cache}) {
    const auto loaded = OpenGraph(path, rng, options);
    ASSERT_FALSE(loaded.ok()) << "use_cache=" << options.use_cache;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("dpkb checksum mismatch"),
              std::string::npos)
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


// ------------------------------------------- "graph_load" StatCache entries

// Enables a clean StatCache for one test, over a fresh disk tier when a
// stem is given, and restores the disabled, detached default.
class ScopedGraphMemo {
 public:
  explicit ScopedGraphMemo(const std::string& disk_stem = "") {
    StatCache::Instance().Clear();
    StatCache::Instance().set_enabled(true);
    if (disk_stem.empty()) return;
    root_ = TempPath(disk_stem + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    EXPECT_TRUE(StatCache::Instance().AttachDiskTier(root_).ok());
  }
  ~ScopedGraphMemo() {
    StatCache::Instance().set_enabled(false);
    StatCache::Instance().DetachDiskTier();
    StatCache::Instance().Clear();
    if (!root_.empty()) std::filesystem::remove_all(root_);
  }
  const std::string& root() const { return root_; }

 private:
  std::string root_;
};

StatCache::Counters GraphLoadCounters() {
  for (const auto& [domain, counters] :
       StatCache::Instance().DomainCounters()) {
    if (domain == "graph_load") return counters;
  }
  return {};
}

// The caller's stream before a load: seeded, with a Gaussian drawn so a
// spare is pending — the spare is part of the Rng state, so it is part
// of the key and of the replayed end state.
void PrimeCaller(Rng& rng) { (void)rng.NextGaussian(); }

// What an uncached load yields: MakeDataset's graph and the draws the
// caller's stream makes next.
struct Reference {
  Graph graph;
  double spare = 0.0;
  double gaussian = 0.0;
  uint64_t next = 0;
};

Reference MakeReference(const std::string& name) {
  Rng rng(42);
  PrimeCaller(rng);
  Reference reference{MakeDataset(name, rng)};
  reference.spare = rng.NextGaussian();
  reference.gaussian = rng.NextGaussian();
  reference.next = rng.NextU64();
  return reference;
}

// Loads `name` on a primed Rng(42) and checks the graph and the caller's
// next draws against the uncached reference.
GraphHandle ExpectLoadMatches(const std::string& name,
                              const Reference& reference) {
  Rng rng(42);
  PrimeCaller(rng);
  auto loaded = OpenGraph(name, rng);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (!loaded.ok()) return GraphHandle();
  const GraphView view = loaded.value().view();
  EXPECT_TRUE(std::ranges::equal(view.Offsets(), reference.graph.Offsets()));
  EXPECT_TRUE(
      std::ranges::equal(view.Adjacency(), reference.graph.Adjacency()));
  EXPECT_EQ(view.ContentFingerprint(), reference.graph.ContentFingerprint());
  EXPECT_EQ(rng.NextGaussian(), reference.spare);
  EXPECT_EQ(rng.NextGaussian(), reference.gaussian);
  EXPECT_EQ(rng.NextU64(), reference.next);
  return std::move(loaded).value();
}

TEST(GraphSourceMemoTest, GeneratedGraphIsTheGeneratorsOnEveryPath) {
  const Reference reference = MakeReference("AS20-like");
  ScopedGraphMemo memo("graph_memo_paths");

  // Miss: the generator runs on the caller's stream, the entry is
  // written behind to disk.
  const GraphHandle miss = ExpectLoadMatches("AS20-like", reference);
  EXPECT_EQ(GraphLoadCounters().misses, 1u);
  EXPECT_EQ(GraphLoadCounters().disk_misses, 1u);
  // The byte budget sees the CSR arrays the entry keeps resident.
  EXPECT_GE(StatCache::Instance().resident_bytes(),
            reference.graph.Adjacency().size_bytes());

  // In-memory hit: the same Graph object, not a copy.
  const GraphHandle hit = ExpectLoadMatches("AS20-like", reference);
  EXPECT_EQ(GraphLoadCounters().hits, 1u);
  EXPECT_EQ(hit.view().Adjacency().data(), miss.view().Adjacency().data());

  // Disk hit in a fresh memo (a restarted process).
  StatCache::Instance().Clear();
  (void)ExpectLoadMatches("AS20-like", reference);
  EXPECT_EQ(GraphLoadCounters().disk_hits, 1u);
  EXPECT_EQ(GraphLoadCounters().disk_misses, 0u);

  // A different stream is a different graph, never a hit.
  Rng other(43);
  PrimeCaller(other);
  ASSERT_TRUE(OpenGraph("AS20-like", other).ok());
  EXPECT_EQ(GraphLoadCounters().disk_misses, 1u);
}

TEST(GraphSourceMemoTest, ConcurrentLoadsOfOneKeyGenerateOnce) {
  const Reference reference = MakeReference("CA-GrQC-like");
  ScopedGraphMemo memo;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(
        [&] { (void)ExpectLoadMatches("CA-GrQC-like", reference); });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(GraphLoadCounters().misses, 1u);
  EXPECT_EQ(GraphLoadCounters().hits, 3u);
}

TEST(GraphSourceMemoTest, CachedEdgeListLoadsShareOneGraph) {
  const std::string path = TempPath("memo_shared.edges");
  {
    std::ofstream text(path);
    for (int u = 0; u < 500; ++u) text << u << " " << u + 1 << "\n";
  }
  ScopedGraphMemo memo;
  Rng rng(1);
  GraphLoadOptions options;
  options.use_cache = true;
  const auto first = OpenGraph(path, rng, options);
  const auto second = OpenGraph(path, rng, options);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first.value().view().Adjacency().data(),
            second.value().view().Adjacency().data());
  EXPECT_EQ(GraphLoadCounters().misses, 1u);
  EXPECT_EQ(GraphLoadCounters().hits, 1u);
  EXPECT_GE(StatCache::Instance().resident_bytes(),
            first.value().view().Adjacency().size_bytes());
  std::remove(path.c_str());
  std::remove(BinaryCachePath(path).c_str());
}

// Two --dataset-cache loads of one edge list, the first of which writes
// the sidecar, share one mapping through the content-stamp memo.
TEST(GraphSourceMemoTest, MappedEdgeListLoadsShareOneMapping) {
  const std::string path = TempPath("memo_mapped.edges");
  std::ofstream(path) << "0 1\n1 2\n2 0\n";
  std::remove(BinaryCachePath(path).c_str());
  ScopedGraphMemo memo;
  Rng rng(1);
  GraphLoadOptions options;
  options.use_cache = true;
  const auto first = OpenGraph(path, rng, options);
  const auto second = OpenGraph(path, rng, options);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_TRUE(first.value().mmap_backed());
  EXPECT_EQ(first.value().view().Adjacency().data(),
            second.value().view().Adjacency().data());
  EXPECT_EQ(GraphLoadCounters().misses, 1u);
  EXPECT_EQ(GraphLoadCounters().hits, 1u);
  std::remove(path.c_str());
  std::remove(BinaryCachePath(path).c_str());
}

// A sidecar whose header and source stamp are intact but whose payload
// was changed on disk is never served: every route that reaches the
// sidecar verifies it at open, rebuilds it from the text and serves the
// fresh parse.
TEST(GraphSourceTest, TamperedSidecarIsRebuiltOnEveryRoute) {
  const std::string path = TempPath("tampered.edges");
  std::ofstream(path) << "0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n";
  const std::string cache = BinaryCachePath(path);
  const auto fresh = ReadEdgeList(path);
  ASSERT_TRUE(fresh.ok());
  const Graph& parsed = fresh.value();
  ASSERT_EQ(parsed.Neighbors(0)[0], 1u);  // ids densify to themselves

  // Byte offsets of the v3 sections (graph_io.h): offsets at 64, the
  // adjacency on the next 64-byte boundary past them.
  const size_t offsets_at = 64;
  const size_t adjacency_at =
      (offsets_at + sizeof(uint32_t) * (parsed.NumNodes() + 1) + 63) / 64 *
      64;
  const std::pair<const char*, std::pair<size_t, uint32_t>> tampers[] = {
      // Node 0's neighbours {1, 5} become {4, 5}: still a valid CSR.
      {"adjacency word", {adjacency_at, 4}},
      {"interior offset", {offsets_at + 3 * sizeof(uint32_t), 0x7fffffff}},
  };
  GraphLoadOptions use_cache;
  use_cache.use_cache = true;
  const std::pair<const char*, std::function<Result<GraphHandle>()>>
      routes[] = {
          {"ReadEdgeListMapped", [&] { return ReadEdgeListMapped(path); }},
          {"OpenGraph{use_cache}",
           [&] {
             Rng rng(1);
             return OpenGraph(path, rng, use_cache);
           }},
      };
  for (const auto& [tamper, at] : tampers) {
    for (const auto& [route, load] : routes) {
      SCOPED_TRACE(std::string(tamper) + " via " + route);
      std::remove(cache.c_str());
      ASSERT_TRUE(ReadEdgeListMapped(path).ok());  // a fresh sidecar
      {
        std::fstream file(cache, std::ios::in | std::ios::out |
                                     std::ios::binary);
        file.seekp(static_cast<std::streamoff>(at.first));
        file.write(reinterpret_cast<const char*>(&at.second),
                   sizeof(at.second));
      }
      const ino_t tampered = testing::FileInode(cache);

      const auto loaded = load();
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(loaded.value().view().ContentFingerprint(),
                parsed.ContentFingerprint());
      EXPECT_TRUE(testing::SameCsr(loaded.value(), parsed));
      EXPECT_NE(testing::FileInode(cache), tampered);  // rewritten
      MmapOptions verify;
      verify.verify_payload = true;
      EXPECT_TRUE(MmapGraph::Open(cache, verify).ok());
    }
  }
  std::remove(path.c_str());
  std::remove(cache.c_str());
}

// The one "graph_load" entry under a disk root, read back through the
// codec's own field order: offsets, adjacency, end state.
struct StoredEntry {
  uint64_t key = 0;
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> adjacency;
  Rng::State end_state{};
};

StoredEntry ReadStoredEntry(const DiskCache& disk, const std::string& root) {
  StoredEntry entry;
  for (const auto& file : std::filesystem::directory_iterator(root)) {
    const std::string name = file.path().filename().string();
    if (name.starts_with("graph_load-") && name.ends_with(".dpkc")) {
      entry.key = std::stoull(name.substr(11, 16), nullptr, 16);
    }
  }
  auto bytes = disk.Load("graph_load", entry.key);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  if (!bytes.ok()) return entry;
  RecordParser rec(bytes.value());
  EXPECT_TRUE(DecodePodVector(rec, &entry.offsets));
  EXPECT_TRUE(DecodePodVector(rec, &entry.adjacency));
  EXPECT_TRUE(DecodeRngState(rec, &entry.end_state));
  EXPECT_TRUE(rec.done());
  return entry;
}

std::string EncodeEntry(const std::vector<uint32_t>& offsets,
                        const std::vector<uint32_t>& adjacency,
                        const Rng::State& state) {
  RecordBuilder rec;
  EncodePodVector(rec, offsets);
  EncodePodVector(rec, adjacency);
  EncodeRngState(rec, state);
  return rec.str();
}

// Each record is well framed (the disk tier's checksum passes) but its
// value is hostile. Graph::FromCsr would abort on every CSR shape here,
// so the decoder must reject each one, and the load regenerates.
TEST(GraphSourceMemoTest, HostileGeneratedEntriesAreMissesThatRegenerate) {
  const Reference reference = MakeReference("AS20-like");
  ScopedGraphMemo memo("graph_memo_hostile");
  (void)ExpectLoadMatches("AS20-like", reference);
  auto disk = DiskCache::Open(memo.root());
  ASSERT_TRUE(disk.ok());
  const StoredEntry good = ReadStoredEntry(*disk.value(), memo.root());
  ASSERT_EQ(good.offsets.size(), reference.graph.NumNodes() + 1u);
  const uint32_t n = reference.graph.NumNodes();
  ASSERT_GT(reference.graph.Degree(0), 0u);
  ASSERT_GT(reference.graph.Degree(n - 1), 0u);
  uint32_t wide = 0;  // a node with two neighbours to swap
  while (reference.graph.Degree(wide) < 2) ++wide;

  using Csr = std::pair<std::vector<uint32_t>, std::vector<uint32_t>>;
  const auto csr_case = [&](const std::function<void(Csr&)>& mutate) {
    Csr csr{good.offsets, good.adjacency};
    mutate(csr);
    return EncodeEntry(csr.first, csr.second, good.end_state);
  };
  const std::string whole =
      EncodeEntry(good.offsets, good.adjacency, good.end_state);
  RecordBuilder short_state;
  EncodePodVector(short_state, good.offsets);
  EncodePodVector(short_state, good.adjacency);
  for (uint64_t word : good.end_state.s) short_state.U64(word);
  short_state.U32(good.end_state.have_gaussian ? 1 : 0);  // no spare

  const std::pair<const char*, std::string> hostile[] = {
      {"truncated record", whole.substr(0, whole.size() / 2)},
      {"odd-length adjacency", csr_case([](Csr& c) {
         c.second.pop_back();
         --c.first.back();
       })},
      {"non-monotone offsets",
       csr_case([](Csr& c) { c.first[2] = c.first[1] - 1; })},
      {"offsets.back() != size", csr_case([](Csr& c) { c.first.back() += 2; })},
      {"neighbour >= n", csr_case([n](Csr& c) { c.second.back() = n; })},
      {"self-loop", csr_case([](Csr& c) { c.second[0] = 0; })},
      {"unsorted list", csr_case([wide](Csr& c) {
         std::swap(c.second[c.first[wide]], c.second[c.first[wide] + 1]);
       })},
      {"short Rng::State", short_state.str()},
  };
  for (const auto& [what, bytes] : hostile) {
    SCOPED_TRACE(what);
    ASSERT_TRUE(disk.value()->Store("graph_load", good.key, bytes).ok());
    StatCache::Instance().Clear();
    (void)ExpectLoadMatches("AS20-like", reference);
    EXPECT_EQ(GraphLoadCounters().disk_hits, 0u);
    EXPECT_EQ(GraphLoadCounters().disk_misses, 1u);
    // The regeneration rewrote the good entry.
    const StoredEntry rewritten = ReadStoredEntry(*disk.value(), memo.root());
    EXPECT_EQ(rewritten.adjacency, good.adjacency);
  }
}

// A warm disk tier serves whatever graph a generator produced when the
// entry was written. These fingerprints pin every generator's output at
// one seed beside the layout constant: a change to a generator fails
// here until kGeneratedGraphLayout is bumped along with these values.
TEST(GraphSourceMemoTest, GeneratorsArePinnedToTheGeneratedGraphLayout) {
  EXPECT_EQ(kGeneratedGraphLayout, 1u);
  const std::pair<const char*, uint64_t> pinned[] = {
      {"CA-GrQC-like", 0x10341c50432a31c0ull},
      {"CA-HepTh-like", 0x24032a965c19b408ull},
      {"AS20-like", 0xf2a37b7da365e3e0ull},
      {"Synthetic-SKG", 0x6c712526ef503875ull},
  };
  ASSERT_EQ(std::size(pinned), PaperDatasets().size());
  for (const auto& [name, fingerprint] : pinned) {
    Rng rng(7);
    EXPECT_EQ(MakeDataset(name, rng).ContentFingerprint(), fingerprint)
        << name;
  }
}

}  // namespace
}  // namespace dpkron
