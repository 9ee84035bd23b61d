// Durability subsystem: WAL framing and torn-tail recovery at every byte
// offset, snapshot round trips and config-digest refusal, and the
// service's restart paths (clean drain, changed config, rejected
// batches). That a crashed service recovers exactly the serial replay of
// the batches it keeps, losing no acknowledged one, is the cross-path
// contract (contract_test).

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "keys/standard_keys.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "rules/employee_theory.h"
#include "service/match_service.h"
#include "service/snapshot.h"
#include "service/wal.h"
#include "util/fs.h"

#include "test_support.h"

namespace mergepurge {
namespace {

std::vector<Record> SmallBatch(int tag) {
  return {
      MakeRecord("00000000" + std::to_string(tag), "JOHN", "DOE",
                 std::to_string(tag) + " ELM ST"),
      MakeRecord("11111111" + std::to_string(tag), "JANE", "ROE",
                 std::to_string(tag) + " OAK AVE"),
  };
}

// --- WAL framing. ---

TEST(WalTest, CommitAndReadRoundTrip) {
  TempDir dir;
  WalWriter writer(FsyncPolicy::kNone);
  ASSERT_TRUE(writer.Open(dir.path(), 1).ok());
  for (int i = 0; i < 3; ++i) {
    Result<uint64_t> seq = writer.Commit(SmallBatch(i));
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(*seq, static_cast<uint64_t>(i + 1));
  }
  writer.Close();

  WalReadStats stats;
  Result<std::vector<WalBatch>> batches =
      ReadWalForRecovery(dir.path(), 0, &stats);
  ASSERT_TRUE(batches.ok());
  ASSERT_EQ(batches->size(), 3u);
  EXPECT_EQ(stats.last_seq, 3u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  for (int i = 0; i < 3; ++i) {
    const WalBatch& batch = (*batches)[i];
    EXPECT_EQ(batch.seq, static_cast<uint64_t>(i + 1));
    const std::vector<Record> want = SmallBatch(i);
    ASSERT_EQ(batch.records.size(), want.size());
    for (size_t r = 0; r < want.size(); ++r) {
      for (size_t f = 0; f < employee::kNumFields; ++f) {
        EXPECT_EQ(batch.records[r].field(f), want[r].field(f));
      }
    }
  }

  // after_seq skips the prefix (the snapshot-covered part).
  Result<std::vector<WalBatch>> tail =
      ReadWalForRecovery(dir.path(), 2, nullptr);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ(tail->front().seq, 3u);
}

TEST(WalTest, ReopenContinuesSequenceNumbers) {
  TempDir dir;
  {
    WalWriter writer(FsyncPolicy::kNone);
    ASSERT_TRUE(writer.Open(dir.path(), 1).ok());
    ASSERT_TRUE(writer.Commit(SmallBatch(0)).ok());
    writer.Close();
  }
  WalReadStats stats;
  ASSERT_TRUE(ReadWalForRecovery(dir.path(), 0, &stats).ok());
  WalWriter writer(FsyncPolicy::kNone);
  ASSERT_TRUE(writer.Open(dir.path(), stats.last_seq + 1).ok());
  Result<uint64_t> seq = writer.Commit(SmallBatch(1));
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 2u);
  writer.Close();

  Result<std::vector<WalBatch>> batches =
      ReadWalForRecovery(dir.path(), 0, nullptr);
  ASSERT_TRUE(batches.ok());
  ASSERT_EQ(batches->size(), 2u);
}

// The torn-write matrix: truncate the segment at EVERY byte offset
// inside the final record's frame; recovery must keep exactly the intact
// prefix, cut the torn tail in place, and report the cut size.
TEST(WalTest, TornTailCutAtEveryByteOffset) {
  TempDir dir;
  uint64_t good_end = 0;
  std::string full_bytes;
  const std::string segment =
      dir.path() + "/" + WalSegmentFileName(1);
  {
    WalWriter writer(FsyncPolicy::kNone);
    ASSERT_TRUE(writer.Open(dir.path(), 1).ok());
    ASSERT_TRUE(writer.Commit(SmallBatch(0)).ok());
    ASSERT_TRUE(writer.Commit(SmallBatch(1)).ok());
    Result<uint64_t> size = FileSizeOf(segment);
    ASSERT_TRUE(size.ok());
    good_end = *size;
    ASSERT_TRUE(writer.Commit(SmallBatch(2)).ok());
    writer.Close();
    std::ifstream in(segment, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    full_bytes = buf.str();
  }
  ASSERT_GT(full_bytes.size(), good_end);

  for (uint64_t cut = good_end; cut < full_bytes.size(); ++cut) {
    {
      std::ofstream out(segment, std::ios::binary | std::ios::trunc);
      out.write(full_bytes.data(), static_cast<std::streamsize>(cut));
    }
    WalReadStats stats;
    Result<std::vector<WalBatch>> batches =
        ReadWalForRecovery(dir.path(), 0, &stats);
    ASSERT_TRUE(batches.ok()) << "cut at " << cut;
    ASSERT_EQ(batches->size(), 2u) << "cut at " << cut;
    EXPECT_EQ(stats.last_seq, 2u) << "cut at " << cut;
    EXPECT_EQ(stats.truncated_bytes, cut - good_end) << "cut at " << cut;
    // The cut is made durable in place: the file now ends at the last
    // intact record, so a writer can append immediately.
    Result<uint64_t> size = FileSizeOf(segment);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, good_end) << "cut at " << cut;
  }

  // The untouched file reads back whole.
  {
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out.write(full_bytes.data(),
              static_cast<std::streamsize>(full_bytes.size()));
  }
  WalReadStats stats;
  Result<std::vector<WalBatch>> batches =
      ReadWalForRecovery(dir.path(), 0, &stats);
  ASSERT_TRUE(batches.ok());
  EXPECT_EQ(batches->size(), 3u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
}

// --- Snapshots. ---

TEST(SnapshotTest, SaveAndLoadRoundTrip) {
  TempDir dir;
  IncrementalMergePurge engine(EngineOptions());
  EmployeeTheory theory;
  Dataset data = GenerateDataset(60, 7);
  ASSERT_TRUE(engine.AddBatch(data, theory).ok());

  const uint64_t digest = EngineConfigDigest(EngineOptions());
  SnapshotState state;
  state.seq = 5;
  state.records = engine.records();
  state.pairs = engine.pairs();
  ASSERT_TRUE(SaveSnapshot(dir.path(), digest, state).ok());

  Result<SnapshotState> loaded = LoadNewestSnapshot(dir.path(), digest);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seq, 5u);
  EXPECT_EQ(loaded->records.size(), engine.records().size());
  EXPECT_EQ(loaded->pairs.ToSortedVector(),
            engine.pairs().ToSortedVector());

  // Restore onto a fresh engine reproduces the full state.
  IncrementalMergePurge restored(EngineOptions());
  ASSERT_TRUE(
      restored.Restore(std::move(loaded->records), std::move(loaded->pairs))
          .ok());
  ExpectSameRecords(restored.records(), engine.records());
  EXPECT_EQ(restored.ComponentLabels(), engine.ComponentLabels());
}

TEST(SnapshotTest, ConfigDigestMismatchIsRefused) {
  TempDir dir;
  IncrementalMergePurge engine(EngineOptions());
  EmployeeTheory theory;
  ASSERT_TRUE(engine.AddBatch(GenerateDataset(20, 3), theory).ok());
  SnapshotState state;
  state.seq = 1;
  state.records = engine.records();
  state.pairs = engine.pairs();
  const uint64_t digest = EngineConfigDigest(EngineOptions());
  ASSERT_TRUE(SaveSnapshot(dir.path(), digest, state).ok());

  // A different window is a different engine: loading must refuse hard
  // (not fall back to empty), or recovery would silently mis-merge.
  MergePurgeOptions other = EngineOptions();
  other.window = 4;
  Result<SnapshotState> loaded =
      LoadNewestSnapshot(dir.path(), EngineConfigDigest(other));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// Snapshots and WALs written by earlier builds carry this digest; a
// change to it makes every existing data dir unrecoverable.
TEST(SnapshotTest, EngineConfigDigestOfStandardKeysIsPinned) {
  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  EXPECT_EQ(EngineConfigDigest(options), 0x23683dffba68f065ull);
  options.window = 8;
  EXPECT_EQ(EngineConfigDigest(options), 0xec49ce7686f94458ull);
}

TEST(SnapshotTest, EmptyDirIsNotFound) {
  TempDir dir;
  Result<SnapshotState> loaded =
      LoadNewestSnapshot(dir.path(), EngineConfigDigest(EngineOptions()));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// --- The service over a data dir. ---

// Clean drain + restart: the final snapshot covers everything, the WAL
// is truncated, and recovery replays nothing.
TEST(ServiceDurabilityTest, CleanRestartRecoversFromSnapshotAlone) {
  TempDir dir;
  Dataset data = GenerateDataset(60, 31);
  Dataset before_records{employee::MakeSchema()};
  std::vector<uint32_t> before_labels;
  {
    MatchService service(DurableServiceOptions(dir.path()),
                         EmployeeTheory::Factory());
    ASSERT_TRUE(service.init_status().ok());
    for (size_t next = 0; next + 4 <= data.size(); next += 4) {
      std::vector<Record> batch;
      for (size_t r = 0; r < 4; ++r) {
        batch.push_back(data.record(static_cast<TupleId>(next + r)));
      }
      ASSERT_TRUE(service.Upsert(std::move(batch)).ok());
    }
    service.Drain();
    before_records = service.CopyRecords();
    before_labels = service.ComponentLabels();
  }

  MatchService recovered(DurableServiceOptions(dir.path()),
                         EmployeeTheory::Factory());
  ASSERT_TRUE(recovered.init_status().ok());
  MatchService::DurabilityInfo info = recovered.GetDurability();
  EXPECT_TRUE(info.enabled);
  EXPECT_TRUE(info.recovery.snapshot_loaded);
  EXPECT_EQ(info.recovery.batches_replayed, 0u)
      << "the drain snapshot must cover the full log";
  recovered.Drain();
  ASSERT_EQ(recovered.CopyRecords().size(), before_records.size());
  EXPECT_EQ(recovered.ComponentLabels(), before_labels);
}

// Changing engine parameters between runs must refuse recovery rather
// than mis-merge under the new configuration.
TEST(ServiceDurabilityTest, ChangedEngineConfigRefusesToRecover) {
  TempDir dir;
  {
    MatchService service(DurableServiceOptions(dir.path()),
                         EmployeeTheory::Factory());
    ASSERT_TRUE(service.init_status().ok());
    std::vector<Record> batch = SmallBatch(0);
    for (int i = 1; i < 4; ++i) {
      std::vector<Record> more = SmallBatch(i);
      batch.insert(batch.end(), more.begin(), more.end());
    }
    ASSERT_TRUE(service.Upsert(std::move(batch)).ok());
    ASSERT_TRUE(service.SnapshotNow().ok());
    service.Drain();
  }
  MatchServiceOptions options = DurableServiceOptions(dir.path());
  options.engine.window = 4;
  MatchService service(options, EmployeeTheory::Factory());
  ASSERT_FALSE(service.init_status().ok());
  EXPECT_EQ(service.init_status().code(), StatusCode::kInvalidArgument);
}

// A key spec that fails validation against the schema: every batch is
// rejected by the engine.
MatchServiceOptions RejectingServiceOptions(const std::string& data_dir) {
  MatchServiceOptions options = DurableServiceOptions(data_dir);
  KeySpec bad;
  bad.name = "no-such-field";
  KeyComponent component;
  component.field = 99;
  bad.components.push_back(component);
  options.engine.keys = {bad};
  return options;
}

// All-or-nothing: a batch the engine rejects is refused before the WAL
// append, so the log never holds a batch recovery could not replay.
TEST(ServiceDurabilityTest, RejectedBatchIsNeverLogged) {
  TempDir dir;
  Counter* appends = MetricsRegistry::Global().GetCounter(
      metric_names::kServiceWalAppends);
  {
    MatchService service(RejectingServiceOptions(dir.path()),
                         EmployeeTheory::Factory());
    ASSERT_TRUE(service.init_status().ok());
    const uint64_t appends_before = appends->Value();
    Result<MatchService::UpsertOutcome> outcome =
        service.Upsert(SmallBatch(0));
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(appends->Value() - appends_before, 0u);
    EXPECT_EQ(service.GetStats().records, 0u);
    service.Drain();
  }
  Result<std::vector<WalBatch>> wal =
      ReadWalForRecovery(dir.path(), 0, nullptr);
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal->empty());
  MatchService restarted(RejectingServiceOptions(dir.path()),
                         EmployeeTheory::Factory());
  EXPECT_TRUE(restarted.init_status().ok());
}

// A logged batch the engine rejects on replay means the log and the
// engine disagree: recovery fails and names the batch's WAL seq.
TEST(ServiceDurabilityTest, ReplayRejectionFailsRecoveryNamingSeq) {
  TempDir dir;
  {
    WalWriter wal(FsyncPolicy::kAlways);
    ASSERT_TRUE(wal.Open(dir.path(), 1).ok());
    ASSERT_TRUE(wal.Commit(SmallBatch(0)).ok());
    wal.Close();
  }
  MatchService service(RejectingServiceOptions(dir.path()),
                       EmployeeTheory::Factory());
  const Status status = service.init_status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("seq 1"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(service.lifecycle(), MatchService::Lifecycle::kFailed);
  EXPECT_FALSE(service.Upsert(SmallBatch(1)).ok());
}

}  // namespace
}  // namespace mergepurge
