// The cross-path contract (DESIGN.md, "The cross-path contract"): every
// way of running merge/purge is checked against one serial run over
// three generated databases. The reference is SortedNeighborhood::Run or
// ClusteringMethod::Run per key, then TransitiveClosure; the table in
// DESIGN.md gives each path's relation to it and the reason wherever the
// relation is weaker than equality.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/clustering_method.h"
#include "core/incremental.h"
#include "core/merge_purge.h"
#include "core/purge_policy.h"
#include "core/sorted_neighborhood.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "obs/json.h"
#include "parallel/fragment_scan.h"
#include "rules/employee_theory.h"
#include "service/match_service.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/wal.h"
#include "shard/coordinator.h"
#include "text/normalize.h"
#include "util/fault_injector.h"
#include "util/fs.h"
#include "util/random.h"

#include "test_support.h"

namespace mergepurge {
namespace {

constexpr size_t kWindow = 10;

// The serial run every path is measured against.
struct SerialReference {
  std::vector<PassResult> passes;  // One per key, in key order.
  PairSet pairs;                   // Union of the passes' pairs.
  std::vector<uint32_t> labels;    // Smallest tuple id of each class.
};

// `clustering` null: the sorted-neighborhood method.
SerialReference RunSerially(const Dataset& conditioned,
                            const std::vector<KeySpec>& keys,
                            const ClusteringOptions* clustering) {
  SerialReference reference;
  std::vector<const PairSet*> pair_sets;
  for (const KeySpec& key : keys) {
    EmployeeTheory theory;
    auto pass =
        clustering != nullptr
            ? ClusteringMethod(*clustering).Run(conditioned, key, theory)
            : SortedNeighborhood(kWindow).Run(conditioned, key, theory);
    EXPECT_TRUE(pass.ok()) << pass.status().ToString();
    reference.passes.push_back(std::move(*pass));
  }
  for (const PassResult& pass : reference.passes) {
    pair_sets.push_back(&pass.pairs);
    reference.pairs.Merge(pass.pairs);
  }
  reference.labels = TransitiveClosure(pair_sets, conditioned.size());
  return reference;
}

// Tuples that `coarse` separates from their class in `fine`; 0 iff
// `coarse` is coarser than or equal to `fine`. Labels are smallest tuple
// ids, so fine[t] is a member of t's class.
size_t Splits(const std::vector<uint32_t>& fine,
              const std::vector<uint32_t>& coarse) {
  EXPECT_EQ(fine.size(), coarse.size());
  size_t split = 0;
  for (size_t t = 0; t < std::min(fine.size(), coarse.size()); ++t) {
    split += coarse[t] != coarse[fine[t]];
  }
  return split;
}

void ExpectPassEquals(const PairSet& pairs, const ScanStats& stats,
                      const PassResult& serial) {
  EXPECT_EQ(pairs.ToSortedVector(), serial.pairs.ToSortedVector())
      << "pass " << serial.key_name;
  // The bands are context only: no boundary pair is compared twice.
  EXPECT_EQ(std::tie(stats.windows, stats.comparisons, stats.matches),
            std::tie(serial.windows, serial.comparisons, serial.matches))
      << "pass " << serial.key_name;
}

class ContractTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_records = 250;  // Originals; duplicates come on top.
    config.duplicate_selection_rate = 0.8;
    config.max_duplicates_per_record = 5;
    config.seed = GetParam();
    auto db = DatabaseGenerator(config).Generate();
    ASSERT_TRUE(db.ok());
    raw_ = std::move(db->dataset);
    conditioned_ = raw_;
    ConditionEmployeeDataset(&conditioned_);
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  // raw_[begin, end) cut into consecutive batches of `size` records.
  std::vector<std::vector<Record>> Batches(size_t begin, size_t end,
                                           size_t size) const {
    std::vector<std::vector<Record>> batches;
    const std::vector<Record>& records = raw_.records();
    for (size_t b = begin; b < end; b += size) {
      batches.emplace_back(records.begin() + b,
                           records.begin() + std::min(end, b + size));
    }
    return batches;
  }

  // Scans `jobs` (one per key) on `workers` threads and expects the
  // serial passes and their closure.
  void ExpectScanEqualsSerial(const std::vector<FragmentScanJob>& jobs,
                              size_t workers,
                              const SerialReference& reference) const {
    FragmentScanReport report = ScanFragments(
        conditioned_, kWindow, jobs, EmployeeTheory::Factory(), workers);
    ASSERT_TRUE(report.status.ok()) << report.status.ToString();
    std::vector<const PairSet*> pair_sets;
    for (size_t k = 0; k < jobs.size(); ++k) {
      const FragmentScanResult& job = report.jobs[k];
      EXPECT_TRUE(job.complete);
      ExpectPassEquals(job.pairs, job.stats, reference.passes[k]);
      pair_sets.push_back(&job.pairs);
    }
    EXPECT_EQ(TransitiveClosure(pair_sets, conditioned_.size()),
              reference.labels);
  }

  Dataset raw_;
  Dataset conditioned_;
  TempDir dir_;  // Scratch space for data dirs.
};

// --- Parallel: the fragment scan and MultiPass equal the serial passes.

TEST_P(ContractTest, ParallelPassesEqualSerialPasses) {
  const std::vector<KeySpec> keys = StandardThreeKeys();
  ClusteringOptions fixed_key;
  fixed_key.num_clusters = 12;
  fixed_key.window = kWindow;
  ClusteringOptions full_key = fixed_key;  // The §3.4 ablation.
  full_key.sort_with_full_key = true;
  const ClusteringOptions* methods[] = {nullptr, &fixed_key, &full_key};
  std::vector<SerialReference> references;
  for (const ClusteringOptions* method : methods) {
    references.push_back(RunSerially(conditioned_, keys, method));
  }

  // ScanFragments over every key's fragments at once, as MultiPass does.
  // Sorted neighborhood: one banded fragment per worker up to 3 workers,
  // then 37 small ones on 4 (the bands then cover a large share of each
  // fragment).
  std::vector<std::vector<TupleId>> orders;
  for (const KeySpec& key : keys) {
    orders.push_back(SortedNeighborhood::SortByKey(conditioned_, key));
  }
  for (size_t workers = 1; workers <= 4; ++workers) {
    const size_t fragments = workers < 4 ? workers : 37;
    SCOPED_TRACE("snm, " + std::to_string(fragments) + " fragments");
    std::vector<FragmentScanJob> jobs(keys.size());
    for (size_t k = 0; k < keys.size(); ++k) {
      jobs[k].order = &orders[k];
      jobs[k].fragments =
          MakeOverlappingFragments(orders[k].size(), fragments, kWindow);
    }
    ExpectScanEqualsSerial(jobs, workers, references[0]);
  }
  // Clustering: one unbanded fragment per cluster.
  std::vector<ClusteredOrder> clustered(keys.size());
  std::vector<FragmentScanJob> jobs(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    PassResult timings;
    auto order = ClusterOrder(conditioned_, keys[k], fixed_key, &timings);
    ASSERT_TRUE(order.ok()) << order.status().ToString();
    clustered[k] = std::move(*order);
    jobs[k].order = &clustered[k].order;
    jobs[k].fragments = clustered[k].Fragments();
  }
  for (size_t workers = 1; workers <= 4; ++workers) {
    SCOPED_TRACE("clustering, " + std::to_string(workers) + " workers");
    ExpectScanEqualsSerial(jobs, workers, references[1]);
  }

  // MultiPass behind the public engine, which conditions the raw records
  // itself.
  for (size_t m = 0; m < 3; ++m) {
    SCOPED_TRACE("engine, method " + std::to_string(m));
    MergePurgeOptions options = EngineOptions(keys, kWindow);
    if (methods[m] != nullptr) {
      options.method = MergePurgeOptions::Method::kClustering;
      options.clustering = *methods[m];
    }
    EmployeeTheory theory;
    auto result = MergePurgeEngine(options).Run(raw_, theory);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->detail.passes.size(), keys.size());
    for (size_t k = 0; k < keys.size(); ++k) {
      const PassResult& pass = result->detail.passes[k];
      ExpectPassEquals(pass.pairs,
                       {pass.windows, pass.comparisons, pass.matches},
                       references[m].passes[k]);
    }
    EXPECT_EQ(result->component_of, references[m].labels);
  }
}

// --- Incremental: superset of the serial pairs, coarser partition. ---

TEST_P(ContractTest, IncrementalFindsSupersetOfSerialPairs) {
  const std::vector<KeySpec> keys = StandardThreeKeys();
  const SerialReference reference = RunSerially(conditioned_, keys, nullptr);
  EmployeeTheory theory;

  // One batch is the serial run.
  {
    IncrementalMergePurge incremental(EngineOptions(keys, kWindow));
    ASSERT_TRUE(incremental.AddBatch(raw_, theory).ok());
    EXPECT_EQ(incremental.pairs().ToSortedVector(),
              reference.pairs.ToSortedVector());
    EXPECT_EQ(incremental.ComponentLabels(), reference.labels);
  }

  // Seeded random splits: records that were neighbors in a smaller
  // database stay merged after later insertions push them apart, so
  // only a superset holds.
  for (uint64_t split = 0; split < 2; ++split) {
    Rng rng(GetParam() * 31 + split);
    std::vector<std::vector<Record>> batches;
    for (size_t begin = 0; begin < raw_.size();) {
      const size_t end = std::min(
          raw_.size(), begin + 1 + rng.NextBounded(raw_.size() / 4));
      batches.push_back(Batches(begin, end, end - begin).front());
      begin = end;
    }
    SCOPED_TRACE("split " + std::to_string(split) + ": " +
                 std::to_string(batches.size()) + " batches");
    const auto incremental =
        ReplaySerially(EngineOptions(keys, kWindow), batches);
    ASSERT_EQ(incremental->size(), raw_.size());
    size_t missing = 0;
    reference.pairs.ForEach([&](TupleId a, TupleId b) {
      if (!incremental->pairs().Contains(a, b)) ++missing;
    });
    EXPECT_EQ(missing, 0u) << "serial pairs the incremental run lacks";
    EXPECT_EQ(Splits(reference.labels, incremental->ComponentLabels()), 0u);
  }
}

// --- Concurrent service: equals a serial replay of its commits. ---

TEST_P(ContractTest, ConcurrentServiceEqualsSerialReplay) {
  const size_t total = 400;
  MatchServiceOptions options;
  options.engine = EngineOptions(StandardThreeKeys(), kWindow);
  options.batcher.max_batch_records = 64;
  options.batcher.max_delay_ms = 1.0;
  MatchService service(options, EmployeeTheory::Factory());

  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 4;
  std::atomic<bool> writers_done{false};
  std::atomic<uint64_t> matches_served{0};
  std::vector<std::thread> threads;
  // Writers upsert small uneven slices of disjoint ranges.
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const size_t end = total * (w + 1) / kWriters;
      size_t step = 1 + w;
      for (size_t i = total * w / kWriters; i < end;) {
        const size_t n = std::min(step, end - i);
        Result<MatchService::UpsertOutcome> outcome = service.Upsert(
            {raw_.records().begin() + i, raw_.records().begin() + i + n});
        ASSERT_TRUE(outcome.ok());
        ASSERT_EQ(outcome->entities.size(), n);
        i += n;
        step = (step % 7) + 1;
      }
    });
  }
  // Readers probe while the writers admit.
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      uint64_t probes = 0;
      TupleId t = static_cast<TupleId>(r * 17 % total);
      while (!writers_done.load(std::memory_order_acquire)) {
        ASSERT_TRUE(service.Match(raw_.record(t)).ok());
        t = static_cast<TupleId>((t + 13) % total);
        ++probes;
      }
      matches_served.fetch_add(probes);
    });
  }
  for (size_t w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  for (size_t r = kWriters; r < threads.size(); ++r) threads[r].join();
  service.Drain();

  const Dataset admitted = service.CopyRecords();
  ASSERT_EQ(admitted.size(), total);
  std::vector<std::vector<Record>> committed;
  size_t replayed = 0;
  for (size_t batch_size : service.committed_batch_sizes()) {
    committed.emplace_back(admitted.records().begin() + replayed,
                           admitted.records().begin() + replayed + batch_size);
    replayed += batch_size;
  }
  ASSERT_EQ(replayed, total);
  // The admitted records are conditioned already; conditioning is
  // idempotent, so the replay conditions them again to no effect.
  const auto serial = ReplaySerially(options.engine, committed);
  ExpectSameRecords(admitted, serial->records());
  EXPECT_EQ(service.ComponentLabels(), serial->ComponentLabels());
  const MatchService::Stats stats = service.GetStats();
  EXPECT_EQ(stats.pairs, serial->pairs().size());
  EXPECT_EQ(stats.entities, serial->NumEntities());
  EXPECT_GT(matches_served.load(), 0u);
}

// --- Recovered: a crashed service recovers the serial replay of the
// batches it keeps. ---

MatchServiceOptions ContractDurableOptions(const std::string& data_dir) {
  MatchServiceOptions options = DurableServiceOptions(data_dir);
  options.engine.window = kWindow;
  options.durability.keep_wal = true;  // The full log, for the replay.
  return options;
}

// Restarts a service over `options`' data dir and expects it to hold
// exactly the serial replay of `kept`, then to go on like it: `next`
// committed on both finds the same pairs, which a wrongly rebuilt key
// order would not. Returns what recovery saw.
RecoveryInfo ExpectRecoversReplayOf(
    const MatchServiceOptions& options,
    const std::vector<std::vector<Record>>& kept,
    const std::vector<Record>& next) {
  MatchService recovered(options, EmployeeTheory::Factory());
  EXPECT_TRUE(recovered.init_status().ok());
  const RecoveryInfo recovery = recovered.GetDurability().recovery;
  std::vector<std::vector<Record>> stream = kept;
  for (bool with_next : {false, true}) {
    const auto serial = ReplaySerially(options.engine, stream);
    ExpectSameRecords(recovered.CopyRecords(), serial->records());
    EXPECT_EQ(recovered.ComponentLabels(), serial->ComponentLabels());
    EXPECT_EQ(recovered.GetStats().pairs, serial->pairs().size());
    if (with_next) break;
    EXPECT_TRUE(recovered.Upsert(next).ok());
    stream.push_back(next);
  }
  recovered.Drain();
  return recovery;
}

TEST_P(ContractTest, RecoveryEqualsReplayOfKeptBatches) {
  constexpr size_t kBatch = 4;
  const auto batches = Batches(0, 48, kBatch);
  // A batch large enough to meet duplicates of the earlier records.
  const std::vector<Record> next = Batches(48, 248, 200).front();

  // Each crash point: a healthy prefix that ends with a snapshot taken
  // in the test (so one exists whenever the background snapshotter
  // runs), then the point is armed while upserts continue, then the
  // process "crashes". A WAL-point fault fails the in-flight upsert (not
  // acknowledged); a snapshot-point fault breaks the snapshotter while
  // upserts keep committing. Every save after the arming passes the
  // snapshot points, and the explicit one after batch 8's commit has a
  // state newer than the healthy snapshot, so each point is hit.
  for (const char* point :
       {fault_points::kWalAppend, fault_points::kWalFsync,
        fault_points::kSnapshotWrite, fault_points::kSnapshotRename}) {
    SCOPED_TRACE(point);
    const std::string dir = dir_.path() + "/" + point;
    const MatchServiceOptions options = ContractDurableOptions(dir);
    size_t acked = 0;
    {
      MatchService service(options, EmployeeTheory::Factory());
      ASSERT_TRUE(service.init_status().ok());
      for (size_t b = 0; b < batches.size(); ++b) {
        if (b == 8) {
          const Status healthy = service.SnapshotNow();
          ASSERT_TRUE(healthy.ok()) << healthy.ToString();
          FaultInjector::Global().Arm(point, FaultSchedule::FailN(1));
        }
        if (service.Upsert(batches[b]).ok()) acked += kBatch;
        if (b == 8) (void)service.SnapshotNow();  // Hits the snapshot points.
      }
      service.SimulateCrashForTesting();
      service.Drain();
    }
    EXPECT_GE(FaultInjector::Global().HitCount(point), 1u);
    FaultInjector::Global().Reset();

    Result<std::vector<WalBatch>> wal = ReadWalForRecovery(dir, 0, nullptr);
    ASSERT_TRUE(wal.ok() && !wal->empty());
    ASSERT_EQ(wal->front().seq, 1u) << "keep_wal must keep the full log";
    std::vector<std::vector<Record>> kept;
    for (const WalBatch& batch : *wal) kept.push_back(batch.records);
    // The healthy prefix wrote a snapshot, so recovery restores one.
    EXPECT_TRUE(ExpectRecoversReplayOf(options, kept, next).snapshot_loaded);
    // No acknowledged batch is lost. A batch whose append landed but
    // whose fsync "failed" may survive unacknowledged: at least once.
    EXPECT_GE(kept.size() * kBatch, acked);
    EXPECT_LE(kept.size() * kBatch, acked + kBatch);
  }

  // A WAL cut at a seeded random byte offset, with no snapshot to fall
  // back on: recovery keeps exactly the batches whose frames end at or
  // before the cut.
  MatchServiceOptions options = ContractDurableOptions(dir_.path() + "/cut");
  options.durability.snapshot_every_batches = 1u << 30;
  options.durability.snapshot_interval_ms = 1 << 30;
  const std::string segment =
      options.durability.data_dir + "/" + WalSegmentFileName(1);
  auto segment_size = [&segment] {
    Result<uint64_t> size = FileSizeOf(segment);
    EXPECT_TRUE(size.ok());
    return size.ok() ? *size : 0;
  };
  std::vector<uint64_t> frame_ends;
  {
    MatchService service(options, EmployeeTheory::Factory());
    ASSERT_TRUE(service.init_status().ok());
    frame_ends.push_back(segment_size());
    for (const std::vector<Record>& batch : batches) {
      ASSERT_TRUE(service.Upsert(batch).ok());
      frame_ends.push_back(segment_size());
    }
    service.SimulateCrashForTesting();
    service.Drain();
  }
  Rng rng(GetParam());
  const uint64_t cut =
      frame_ends.front() +
      rng.NextBounded(frame_ends.back() - frame_ends.front() + 1);
  std::filesystem::resize_file(segment, cut);
  const size_t kept = static_cast<size_t>(
      std::upper_bound(frame_ends.begin(), frame_ends.end(), cut) -
      frame_ends.begin() - 1);
  SCOPED_TRACE("WAL cut at byte " + std::to_string(cut));
  const RecoveryInfo recovery = ExpectRecoversReplayOf(
      options, {batches.begin(), batches.begin() + kept}, next);
  EXPECT_EQ(recovery.truncated_bytes, cut - frame_ends[kept]);
}

// --- Sharded: a coordinator over 2-4 shards against one engine. ---

TEST_P(ContractTest, ShardedLabelsMatchOneEngine) {
  constexpr size_t kShardRecords = 200;
  const auto batches = Batches(0, kShardRecords, 7);  // 7 divides no count.
  const std::vector<Record> sample(raw_.records().begin(),
                                   raw_.records().begin() + kShardRecords);
  for (bool one_key : {true, false}) {
    MergePurgeOptions engine =
        EngineOptions(one_key ? std::vector<KeySpec>{LastNameKey()}
                              : StandardThreeKeys(),
                      kWindow);
    const auto single = ReplaySerially(engine, batches);
    for (size_t num_shards = 2; num_shards <= 4; ++num_shards) {
      SCOPED_TRACE(std::to_string(num_shards) + " shards, " +
                   (one_key ? "one key" : "three keys"));
      MatchServiceOptions shard_options;
      shard_options.engine = engine;
      shard_options.batcher.max_delay_ms = 0.0;  // Nothing to coalesce.
      ServerOptions server_options;
      server_options.port = 0;
      server_options.num_workers = 4;
      std::vector<std::unique_ptr<MatchService>> shards;
      std::vector<std::unique_ptr<Server>> servers;
      CoordinatorOptions coord_options;
      coord_options.schema = employee::MakeSchema();
      coord_options.keys = engine.keys;
      coord_options.window = kWindow;
      for (size_t s = 0; s < num_shards; ++s) {
        shards.push_back(std::make_unique<MatchService>(
            shard_options, EmployeeTheory::Factory()));
        servers.push_back(
            std::make_unique<Server>(server_options, shards.back().get()));
        Result<uint16_t> port = servers.back()->Start();
        ASSERT_TRUE(port.ok());
        coord_options.shards.push_back({"127.0.0.1", *port});
      }
      CoordService coord(std::move(coord_options));
      ASSERT_TRUE(coord.SeedRouter(sample).ok());
      for (const std::vector<Record>& batch : batches) {
        const std::string line = coord.HandleUpsert(nullptr, batch);
        Result<JsonValue> response = ParseResponseLine(line);
        ASSERT_TRUE(response.ok());
        ASSERT_TRUE(response->Find("ok")->bool_value()) << line;
        ASSERT_EQ(response->Find("entities")->size(), batch.size());
      }

      const std::vector<uint32_t> labels = coord.GlobalLabels();
      const std::vector<uint32_t> expected = single->ComponentLabels();
      if (one_key) {
        EXPECT_EQ(labels, expected);
      } else {
        // Records routed to a shard by another key add comparisons the
        // single engine never makes (DESIGN.md gives the full reason).
        EXPECT_EQ(Splits(expected, labels), 0u);
      }

      // The merged stats count each record once, replicas included.
      Result<JsonValue> stats = ParseResponseLine(
          coord.HandleStats(nullptr, JsonValue::Object()));
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats->Find("records")->int_value(), int64_t{kShardRecords});
      EXPECT_EQ(stats->Find("shards")->size(), num_shards);
      // The shards together hold every record at least once.
      int64_t resident = 0;
      for (const JsonValue& shard : stats->Find("shards")->elements()) {
        resident += shard.Find("records")->int_value();
      }
      EXPECT_GE(resident, int64_t{kShardRecords});
      // A match resolves in the global id space: an exact copy of record
      // 0 reports record 0's own global entity.
      Result<JsonValue> match =
          ParseResponseLine(coord.HandleMatch(nullptr, {raw_.record(0)}));
      ASSERT_TRUE(match.ok() && match->Find("ok")->bool_value());
      ASSERT_FALSE(match->Find("entity")->is_null());
      bool found = false;
      for (const JsonValue& e : match->Find("entities")->elements()) {
        found |= static_cast<uint32_t>(e.int_value()) == labels[0];
      }
      EXPECT_TRUE(found);

      coord.Drain();
      for (auto& server : servers) server->RequestDrain();
      for (auto& server : servers) server->Join();
    }
  }
}

// --- Purge: the same class merged in another arrival order. ---

// The part of a merged field that must not depend on arrival order,
// given the class's values of that field in arrival order.
std::string OrderInvariantPart(MergeStrategy strategy,
                               std::string_view merged,
                               const std::vector<std::string_view>& values) {
  switch (strategy) {
    case MergeStrategy::kLongest:  // Some longest value.
      return std::to_string(merged.size());
    case MergeStrategy::kMostFrequent:  // Some modal value.
      return std::to_string(std::count(values.begin(), values.end(), merged));
    case MergeStrategy::kFirstSeen:  // The first arrival's value.
      return merged == values.front() ? "first" : "not first";
    case MergeStrategy::kNonEmptyFirst:  // Empty only if all are.
      return merged.empty() ? "empty" : "non-empty";
    case MergeStrategy::kConcatDistinct: {  // The same values, reordered.
      std::string chars(merged);
      std::sort(chars.begin(), chars.end());
      return chars;
    }
  }
  return "";
}

TEST_P(ContractTest, PurgeKeepsOrderInvariantPartsUnderPermutation) {
  const SerialReference reference =
      RunSerially(conditioned_, StandardThreeKeys(), nullptr);
  std::unordered_map<uint32_t, std::vector<TupleId>> classes;
  for (TupleId t = 0; t < reference.labels.size(); ++t) {
    classes[reference.labels[t]].push_back(t);
  }
  const std::pair<MergeStrategy, const char*> strategies[] = {
      {MergeStrategy::kLongest, "longest"},
      {MergeStrategy::kMostFrequent, "most_frequent"},
      {MergeStrategy::kFirstSeen, "first_seen"},
      {MergeStrategy::kNonEmptyFirst, "non_empty_first"},
      {MergeStrategy::kConcatDistinct, "concat_distinct"}};
  std::set<std::string> changed;
  Rng rng(GetParam());
  for (const auto& [label, members] : classes) {
    if (members.size() < 2) continue;
    // The same members arriving in a seeded random order: a dataset of
    // the permuted records, merged in its own tuple-id order.
    std::vector<TupleId> order = members;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    Dataset permuted(conditioned_.schema());
    for (TupleId t : order) permuted.Append(conditioned_.record(t));
    std::vector<TupleId> permuted_ids(order.size());
    std::iota(permuted_ids.begin(), permuted_ids.end(), 0);

    for (FieldId f = 0; f < conditioned_.schema().num_fields(); ++f) {
      std::vector<std::string_view> values, permuted_values;
      for (TupleId t : members) {
        values.push_back(conditioned_.record(t).field(f));
      }
      for (TupleId t : order) {
        permuted_values.push_back(conditioned_.record(t).field(f));
      }
      for (const auto& [strategy, name] : strategies) {
        PurgePolicy policy;
        policy.Set(f, strategy);
        const Record a = policy.MergeClass(conditioned_, members);
        const Record b = policy.MergeClass(permuted, permuted_ids);
        if (a.field(f) != b.field(f)) changed.insert(name);
        EXPECT_EQ(OrderInvariantPart(strategy, a.field(f), values),
                  OrderInvariantPart(strategy, b.field(f), permuted_values))
            << name << ", field " << f;
      }
    }
  }
  // Every strategy resolves a choice by arrival position: first_seen,
  // non_empty_first and concat_distinct by definition, longest among
  // distinct values of one length, most_frequent among tied counts.
  // Which of them show it depends on the database, so the test records
  // them and requires only the order-invariant parts above.
  std::string summary;
  for (const std::string& name : changed) summary += " " + name;
  RecordProperty("order_dependent_strategies", summary);
}

INSTANTIATE_TEST_SUITE_P(GeneratorSeeds, ContractTest,
                         ::testing::Values(7u, 1234u, 20240707u));

}  // namespace
}  // namespace mergepurge
