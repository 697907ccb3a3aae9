// The journal primitive: append/recover round trips, longest-valid-
// prefix recovery under truncation at every byte offset, torn-tail
// repair on reopen, failed-append tail repair / wounding, and the
// RecordBuilder/RecordParser encoding.

#include "src/common/journal.h"

#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dpkron {
namespace {

std::string UniqueTempPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem + "_" +
         std::to_string(::getpid()) + ".journal";
}

void RemoveIfPresent(const std::string& path) {
  if (GetEnv()->FileExists(path)) {
    ASSERT_TRUE(GetEnv()->RemoveFile(path).ok());
  }
}

TEST(JournalTest, MissingJournalIsNotFound) {
  const std::string path = UniqueTempPath("journal_missing");
  EXPECT_EQ(ReadJournal(path).status().code(), StatusCode::kNotFound);
}

TEST(JournalTest, AppendRecoverRoundTrip) {
  const std::string path = UniqueTempPath("journal_round_trip");
  RemoveIfPresent(path);
  const std::vector<std::string> payloads = {
      "first", "", std::string("bin\0ary\xff", 8), std::string(1000, 'x')};
  {
    auto writer = JournalWriter::Open(path, 0);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(writer.value()->Append(payload).ok());
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  const auto recovery = ReadJournal(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery.value().records, payloads);
  EXPECT_FALSE(recovery.value().truncated_tail);
  EXPECT_EQ(recovery.value().valid_bytes,
            GetEnv()->FileSize(path).value());
  RemoveIfPresent(path);
}

TEST(JournalTest, RecoversLongestValidPrefixAtEveryTruncation) {
  // The core crash-safety property: however many trailing bytes a crash
  // tears off, recovery yields some prefix of the appended records —
  // never a half-record, never corrupted contents.
  const std::string path = UniqueTempPath("journal_truncate");
  RemoveIfPresent(path);
  const std::vector<std::string> payloads = {"alpha", "bravo-bravo", "c",
                                             "delta_delta_delta"};
  std::vector<uint64_t> boundaries = {0};  // valid prefix sizes
  {
    auto writer = JournalWriter::Open(path, 0);
    ASSERT_TRUE(writer.ok());
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(writer.value()->Append(payload).ok());
      boundaries.push_back(writer.value()->acknowledged_bytes());
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  const auto full = GetEnv()->ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  const std::string bytes = full.value();

  for (uint64_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::string cut_path = path + ".cut";
    RemoveIfPresent(cut_path);
    ASSERT_TRUE(WriteFileDurable(cut_path, bytes.substr(0, cut)).ok());
    const auto recovery = ReadJournal(cut_path);
    ASSERT_TRUE(recovery.ok()) << "cut=" << cut;
    // The recovered prefix is the last record boundary at or below the
    // cut: exactly the acknowledged records whose bytes survived whole.
    size_t expect_records = 0;
    while (expect_records + 1 < boundaries.size() &&
           boundaries[expect_records + 1] <= cut) {
      ++expect_records;
    }
    ASSERT_EQ(recovery.value().records.size(), expect_records)
        << "cut=" << cut;
    for (size_t i = 0; i < expect_records; ++i) {
      EXPECT_EQ(recovery.value().records[i], payloads[i]) << "cut=" << cut;
    }
    EXPECT_EQ(recovery.value().valid_bytes, boundaries[expect_records])
        << "cut=" << cut;
    EXPECT_EQ(recovery.value().truncated_tail,
              cut != boundaries[expect_records])
        << "cut=" << cut;
    RemoveIfPresent(cut_path);
  }
  RemoveIfPresent(path);
}

TEST(JournalTest, CorruptPayloadStopsRecoveryAtPriorRecord) {
  const std::string path = UniqueTempPath("journal_corrupt");
  RemoveIfPresent(path);
  uint64_t first_boundary = 0;
  {
    auto writer = JournalWriter::Open(path, 0);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append("good record").ok());
    first_boundary = writer.value()->acknowledged_bytes();
    ASSERT_TRUE(writer.value()->Append("to be corrupted").ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  std::string bytes = GetEnv()->ReadFileToString(path).value();
  bytes.back() ^= 0x01;  // flip one payload bit in the second record
  ASSERT_TRUE(WriteFileDurable(path, bytes).ok());
  const auto recovery = ReadJournal(path);
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery.value().records.size(), 1u);
  EXPECT_EQ(recovery.value().records[0], "good record");
  EXPECT_EQ(recovery.value().valid_bytes, first_boundary);
  EXPECT_TRUE(recovery.value().truncated_tail);
  RemoveIfPresent(path);
}

TEST(JournalTest, ReopenTruncatesTornTailAndContinues) {
  const std::string path = UniqueTempPath("journal_reopen");
  RemoveIfPresent(path);
  {
    auto writer = JournalWriter::Open(path, 0);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append("kept").ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  // Simulate a crash mid-append: garbage after the valid prefix.
  {
    auto file = GetEnv()->NewAppendableFile(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append("\x07torn").ok());
    ASSERT_TRUE(file.value()->Close().ok());
  }
  const auto recovery = ReadJournal(path);
  ASSERT_TRUE(recovery.ok());
  ASSERT_TRUE(recovery.value().truncated_tail);
  {
    auto writer = JournalWriter::Open(path, recovery.value().valid_bytes);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append("appended after repair").ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  const auto again = ReadJournal(path);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value().records.size(), 2u);
  EXPECT_EQ(again.value().records[0], "kept");
  EXPECT_EQ(again.value().records[1], "appended after repair");
  EXPECT_FALSE(again.value().truncated_tail);
  RemoveIfPresent(path);
}

TEST(JournalTest, OpenRefusesShrunkenFile) {
  const std::string path = UniqueTempPath("journal_shrunk");
  RemoveIfPresent(path);
  ASSERT_TRUE(WriteFileDurable(path, "tiny").ok());
  // Claiming a valid prefix longer than the file means the recovery
  // state is stale — refusing beats silently re-journaling over it.
  EXPECT_FALSE(JournalWriter::Open(path, 1000).ok());
  RemoveIfPresent(path);
}

TEST(JournalTest, FailedAppendRepairsTailAndRefusedRecordIsAbsent) {
  const std::string path = UniqueTempPath("journal_failed_append");
  FaultInjectionEnv env;
  ScopedEnvOverride scope(&env);
  RemoveIfPresent(path);
  auto writer = JournalWriter::Open(path, 0);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append("durable one").ok());
  const uint64_t acked = writer.value()->acknowledged_bytes();

  // The record's frame+payload land but the fsync fails: the append must
  // refuse, and the torn tail must not survive on disk.
  env.FailSyncs(/*after=*/0, Status::Internal("EIO"));
  EXPECT_FALSE(writer.value()->Append("lost two").ok());
  env.ClearFaults();
  EXPECT_EQ(writer.value()->acknowledged_bytes(), acked);
  EXPECT_FALSE(writer.value()->wounded());  // tail repair succeeded

  // The writer keeps working after the repair.
  ASSERT_TRUE(writer.value()->Append("durable three").ok());
  ASSERT_TRUE(writer.value()->Close().ok());
  const auto recovery = ReadJournal(path, &env);
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery.value().records.size(), 2u);
  EXPECT_EQ(recovery.value().records[0], "durable one");
  EXPECT_EQ(recovery.value().records[1], "durable three");
  RemoveIfPresent(path);
}

TEST(RecordCodecTest, BuildParseRoundTrip) {
  const std::string record = RecordBuilder()
                                 .U32(7)
                                 .Str("analyst-a")
                                 .Double(0.25)
                                 .U64(1ull << 40)
                                 .Str("")
                                 .str();
  RecordParser parser(record);
  EXPECT_EQ(parser.U32(), 7u);
  EXPECT_EQ(parser.Str(), "analyst-a");
  EXPECT_EQ(parser.Double(), 0.25);
  EXPECT_EQ(parser.U64(), 1ull << 40);
  EXPECT_EQ(parser.Str(), "");
  EXPECT_TRUE(parser.ok());
  EXPECT_TRUE(parser.done());
}

TEST(RecordCodecTest, ShortAndOverlongRecordsFlagNotOk) {
  const std::string record = RecordBuilder().U32(1).str();
  RecordParser short_parser(record);
  short_parser.U64();  // reads past the end
  EXPECT_FALSE(short_parser.ok());

  RecordParser trailing(record);
  trailing.U32();
  EXPECT_TRUE(trailing.ok());
  EXPECT_TRUE(trailing.done());

  // Parsers view their input, so each record is a named string that
  // outlives its parser.
  const std::string two_fields = RecordBuilder().U32(1).U32(2).str();
  RecordParser partial(two_fields);
  partial.U32();
  EXPECT_TRUE(partial.ok());
  EXPECT_FALSE(partial.done());  // trailing garbage -> not done

  // A string whose recorded length exceeds the remaining bytes.
  const std::string overlong = RecordBuilder().U32(1000).str();
  RecordParser bad_str(overlong);
  bad_str.Str();
  EXPECT_FALSE(bad_str.ok());
}

}  // namespace
}  // namespace dpkron
