// Durability subsystem: WAL framing and torn-tail recovery, snapshot
// round trips and config-digest refusal, engine Restore ≡ incremental
// replay, and the service-level crash matrix — for every injected crash
// point, a service reconstructed over the same data dir must reach
// exactly the state a serial replay of the WAL reaches, and must never
// lose an acknowledged upsert.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"
#include "service/match_service.h"
#include "service/snapshot.h"
#include "service/wal.h"
#include "util/fault_injector.h"
#include "util/fs.h"

namespace mergepurge {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/mergepurge_durability_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp/mergepurge_durability_bad";
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class FaultInjectorGuard {
 public:
  FaultInjectorGuard() { FaultInjector::Global().Reset(); }
  ~FaultInjectorGuard() { FaultInjector::Global().Reset(); }
};

Record MakeRecord(std::string_view ssn, std::string_view first,
                  std::string_view last, std::string_view address) {
  Record r;
  r.set_field(employee::kSsn, std::string(ssn));
  r.set_field(employee::kFirstName, std::string(first));
  r.set_field(employee::kLastName, std::string(last));
  r.set_field(employee::kAddress, std::string(address));
  r.set_field(employee::kCity, "SPRINGFIELD");
  r.set_field(employee::kState, "IL");
  r.set_field(employee::kZip, "62701");
  return r;
}

std::vector<Record> SmallBatch(int tag) {
  return {
      MakeRecord("00000000" + std::to_string(tag), "JOHN", "DOE",
                 std::to_string(tag) + " ELM ST"),
      MakeRecord("11111111" + std::to_string(tag), "JANE", "ROE",
                 std::to_string(tag) + " OAK AVE"),
  };
}

MergePurgeOptions EngineOptions() {
  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  options.window = 8;
  return options;
}

Dataset GenerateDataset(size_t num_records, uint64_t seed) {
  GeneratorConfig config;
  config.num_records = num_records;
  config.seed = seed;
  auto db = DatabaseGenerator(config).Generate();
  EXPECT_TRUE(db.ok());
  return std::move(db->dataset);
}

// Serial replay of WAL batches into a fresh engine — the reference state
// every recovery path must reproduce. Mirrors the server's replay: raw
// records re-enter through AddBatch (which re-conditions), deterministic
// rejections are skipped.
std::unique_ptr<IncrementalMergePurge> ReplaySerially(
    const std::vector<WalBatch>& batches) {
  auto engine = std::make_unique<IncrementalMergePurge>(EngineOptions());
  EmployeeTheory theory;
  for (const WalBatch& batch : batches) {
    Dataset dataset(employee::MakeSchema());
    dataset.Reserve(batch.records.size());
    for (const Record& record : batch.records) dataset.Append(record);
    (void)engine->AddBatch(dataset, theory);
  }
  return engine;
}

void ExpectSameState(const Dataset& got_records,
                     const std::vector<uint32_t>& got_labels,
                     const IncrementalMergePurge& want) {
  ASSERT_EQ(got_records.size(), want.size());
  const Dataset& expect = want.records();
  const size_t fields = expect.schema().num_fields();
  for (size_t t = 0; t < expect.size(); ++t) {
    for (size_t f = 0; f < fields; ++f) {
      ASSERT_EQ(got_records.record(static_cast<TupleId>(t)).field(f),
                expect.record(static_cast<TupleId>(t)).field(f))
          << "tuple " << t << " field " << f;
    }
  }
  EXPECT_EQ(got_labels, want.ComponentLabels());
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
  ExpectSameState(restored.records(), restored.ComponentLabels(), engine);
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

TEST(SnapshotTest, EmptyDirIsNotFound) {
  TempDir dir;
  Result<SnapshotState> loaded =
      LoadNewestSnapshot(dir.path(), EngineConfigDigest(EngineOptions()));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// --- Restore ≡ replay at the engine level. ---

TEST(RestoreTest, RestoreMidstreamMatchesUninterruptedRun) {
  Dataset data = GenerateDataset(120, 11);
  EmployeeTheory theory;
  const size_t half = data.size() / 2;

  // Reference: one engine sees everything in two batches.
  IncrementalMergePurge reference(EngineOptions());
  Dataset first(data.schema());
  Dataset second(data.schema());
  for (size_t i = 0; i < data.size(); ++i) {
    (i < half ? first : second).Append(data.record(static_cast<TupleId>(i)));
  }
  ASSERT_TRUE(reference.AddBatch(first, theory).ok());

  // Snapshot the midpoint, restore into a fresh engine, continue there.
  Dataset snapshot_records = reference.records();
  PairSet snapshot_pairs = reference.pairs();
  IncrementalMergePurge restored(EngineOptions());
  ASSERT_TRUE(restored
                  .Restore(std::move(snapshot_records),
                           std::move(snapshot_pairs))
                  .ok());

  ASSERT_TRUE(reference.AddBatch(second, theory).ok());
  ASSERT_TRUE(restored.AddBatch(second, theory).ok());

  ExpectSameState(restored.records(), restored.ComponentLabels(), reference);
  EXPECT_EQ(restored.pairs().ToSortedVector(),
            reference.pairs().ToSortedVector());
}

// --- The service-level crash matrix. ---

MatchServiceOptions DurableServiceOptions(const std::string& data_dir) {
  MatchServiceOptions options;
  options.engine = EngineOptions();
  // One upsert == one batch (the test thread is the only client).
  options.batcher.max_delay_ms = 0.0;
  options.durability.data_dir = data_dir;
  options.durability.fsync = FsyncPolicy::kAlways;
  options.durability.snapshot_every_batches = 3;
  options.durability.snapshot_interval_ms = 20;
  options.durability.keep_wal = true;  // Full log for the replay diff.
  return options;
}

struct CrashCase {
  const char* point;
  // Number of faulted OnPoint calls to skip first (0 = fail immediately).
  uint64_t skip;
};

class CrashMatrixTest : public ::testing::TestWithParam<CrashCase> {};

TEST_P(CrashMatrixTest, RecoveryEqualsSerialReplayAndKeepsAckedRecords) {
  FaultInjectorGuard guard;
  const CrashCase param = GetParam();
  TempDir dir;
  Dataset data = GenerateDataset(80, 23);
  constexpr size_t kBatch = 4;

  uint64_t acked_records = 0;
  {
    MatchService service(DurableServiceOptions(dir.path()),
                         EmployeeTheory::Factory());
    ASSERT_TRUE(service.init_status().ok());

    // Healthy prefix: enough batches that a background snapshot lands.
    size_t next = 0;
    for (int i = 0; i < 8 && next + kBatch <= data.size(); ++i) {
      std::vector<Record> batch;
      for (size_t r = 0; r < kBatch; ++r) {
        batch.push_back(data.record(static_cast<TupleId>(next + r)));
      }
      Result<MatchService::UpsertOutcome> outcome =
          service.Upsert(std::move(batch));
      ASSERT_TRUE(outcome.ok());
      acked_records += kBatch;
      next += kBatch;
    }

    // Arm the crash point, then keep the workload running into it. A
    // WAL-point fault makes the in-flight upsert fail (never acked); a
    // snapshot-point fault breaks the snapshotter while upserts keep
    // committing. Either way the process then "crashes".
    FaultInjector::Global().Arm(param.point,
                                FaultSchedule::FailN(1, param.skip));
    (void)service.SnapshotNow();  // Deterministic hit for snapshot points.
    for (int i = 0; i < 4 && next + kBatch <= data.size(); ++i) {
      std::vector<Record> batch;
      for (size_t r = 0; r < kBatch; ++r) {
        batch.push_back(data.record(static_cast<TupleId>(next + r)));
      }
      Result<MatchService::UpsertOutcome> outcome =
          service.Upsert(std::move(batch));
      if (outcome.ok()) acked_records += kBatch;
      next += kBatch;
    }
    service.SimulateCrashForTesting();
    service.Drain();
  }
  FaultInjector::Global().Reset();

  // Restart over the crashed data dir.
  MatchService recovered(DurableServiceOptions(dir.path()),
                         EmployeeTheory::Factory());
  ASSERT_TRUE(recovered.init_status().ok());
  MatchService::Stats stats = recovered.GetStats();

  // Zero acknowledged upserts lost. (A batch whose WAL append completed
  // but whose fsync "failed" may survive unacknowledged — at-least-once,
  // never at-most.)
  EXPECT_GE(stats.records, acked_records) << "crash point " << param.point;
  EXPECT_LE(stats.records, acked_records + kBatch)
      << "crash point " << param.point;

  // Recovery ≡ serial replay of the surviving WAL.
  Result<std::vector<WalBatch>> wal =
      ReadWalForRecovery(dir.path(), 0, nullptr);
  ASSERT_TRUE(wal.ok());
  ASSERT_FALSE(wal->empty());
  ASSERT_EQ(wal->front().seq, 1u) << "keep_wal must preserve the full log";
  std::unique_ptr<IncrementalMergePurge> reference = ReplaySerially(*wal);
  recovered.Drain();
  ExpectSameState(recovered.CopyRecords(), recovered.ComponentLabels(),
                  *reference);
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashPoints, CrashMatrixTest,
    ::testing::Values(CrashCase{fault_points::kWalAppend, 0},
                      CrashCase{fault_points::kWalFsync, 0},
                      CrashCase{fault_points::kSnapshotWrite, 0},
                      CrashCase{fault_points::kSnapshotRename, 0}),
    [](const ::testing::TestParamInfo<CrashCase>& info) {
      std::string name = info.param.point;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Clean drain + restart: the final snapshot covers everything, the WAL
// is truncated (keep_wal off), and recovery replays nothing.
TEST(ServiceDurabilityTest, CleanRestartRecoversFromSnapshotAlone) {
  TempDir dir;
  Dataset data = GenerateDataset(60, 31);
  Dataset before_records{employee::MakeSchema()};
  std::vector<uint32_t> before_labels;
  {
    MatchServiceOptions options = DurableServiceOptions(dir.path());
    options.durability.keep_wal = false;
    MatchService service(options, EmployeeTheory::Factory());
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

  MatchServiceOptions options = DurableServiceOptions(dir.path());
  options.durability.keep_wal = false;
  MatchService recovered(options, EmployeeTheory::Factory());
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

}  // namespace
}  // namespace mergepurge
