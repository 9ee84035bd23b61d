// Fault-tolerance layer: FaultInjector schedules, ThreadPool exception
// capture, ScanFragments' attempt/retry/exhaustion semantics, the
// fault-injection equivalence matrix (multi-pass runs of both methods
// under every programmed failure schedule produce the fault-free pair
// set), and checkpoint/resume for multi-pass runs.

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/merge_purge.h"
#include "core/multipass.h"
#include "core/sorted_neighborhood.h"
#include "gen/generator.h"
#include "io/csv.h"
#include "io/pairs_io.h"
#include "keys/standard_keys.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "parallel/fragment_scan.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"
#include "util/fault_injector.h"
#include "util/thread_pool.h"

#include "test_support.h"

namespace mergepurge {
namespace {

// Every test that arms the global injector must disarm it, or schedules
// would leak into later tests (and other suites).
class FaultInjectorGuard {
 public:
  FaultInjectorGuard() { FaultInjector::Global().Reset(); }
  ~FaultInjectorGuard() { FaultInjector::Global().Reset(); }
};

// --- FaultInjector. ---

TEST(FaultInjectorTest, DisarmedIsOk) {
  FaultInjectorGuard guard;
  EXPECT_TRUE(
      FaultInjector::Global().OnPoint(fault_points::kFragmentScan).ok());
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 0u);
}

TEST(FaultInjectorTest, FailOnceFailsExactlyOnce) {
  FaultInjectorGuard guard;
  FaultInjector injector;
  injector.Arm("p", FaultSchedule::FailOnce());
  Status first = injector.OnPoint("p");
  EXPECT_EQ(first.code(), StatusCode::kInjectedFault);
  EXPECT_TRUE(injector.OnPoint("p").ok());
  EXPECT_TRUE(injector.OnPoint("p").ok());
  EXPECT_EQ(injector.faults_injected(), 1u);
  EXPECT_EQ(injector.HitCount("p"), 3u);
}

TEST(FaultInjectorTest, FailNWithSkip) {
  FaultInjector injector;
  injector.Arm("p", FaultSchedule::FailN(2, /*skip=*/1));
  EXPECT_TRUE(injector.OnPoint("p").ok());    // Skipped.
  EXPECT_FALSE(injector.OnPoint("p").ok());   // Fail 1.
  EXPECT_FALSE(injector.OnPoint("p").ok());   // Fail 2.
  EXPECT_TRUE(injector.OnPoint("p").ok());    // Budget spent.
}

TEST(FaultInjectorTest, RandomRateIsSeededDeterministic) {
  auto run = [] {
    FaultInjector injector;
    injector.Arm("p", FaultSchedule::RandomRate(0.3, 99));
    std::vector<bool> verdicts;
    for (int i = 0; i < 64; ++i) verdicts.push_back(injector.OnPoint("p").ok());
    return verdicts;
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a, b);
  // With rate 0.3 over 64 hits, both outcomes must occur.
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
}

TEST(FaultInjectorTest, StraggleDelaysButSucceeds) {
  FaultInjector injector;
  injector.Arm("p", FaultSchedule::StraggleMs(30));
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(injector.OnPoint("p").ok());
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_GE(elapsed, 25);
}

TEST(FaultInjectorTest, ArmFromSpecParsesMultipleClauses) {
  FaultInjector injector;
  ASSERT_TRUE(injector
                  .ArmFromSpec("parallel.fragment_scan=fail:2;"
                               "io.pairs_write=rate:0.5:seed=3;"
                               "wal-append=straggle:5")
                  .ok());
  EXPECT_FALSE(injector.OnPoint(fault_points::kFragmentScan).ok());
  EXPECT_FALSE(injector.OnPoint(fault_points::kFragmentScan).ok());
  EXPECT_TRUE(injector.OnPoint(fault_points::kFragmentScan).ok());
  EXPECT_TRUE(injector.OnPoint(fault_points::kWalAppend).ok());
}

TEST(FaultInjectorTest, ArmFromSpecRejectsMalformedClauses) {
  FaultInjector injector;
  EXPECT_FALSE(injector.ArmFromSpec("nopoint").ok());
  EXPECT_FALSE(injector.ArmFromSpec("p=explode").ok());
  EXPECT_FALSE(injector.ArmFromSpec("p=fail:0").ok());
  EXPECT_FALSE(injector.ArmFromSpec("p=rate:1.5").ok());
  EXPECT_FALSE(injector.ArmFromSpec("p=rate:0.2:sneed=1").ok());
  EXPECT_FALSE(injector.ArmFromSpec("p=straggle").ok());
}

// --- ThreadPool exception capture. ---

TEST(ThreadPoolTest, ThrowingTaskIsCaught) {
  ThreadPool pool(2);
  std::atomic<int> survivors{0};
  pool.Submit([] { throw std::runtime_error("task blew up"); });
  pool.Submit([&] { ++survivors; });
  pool.Submit([] { throw 42; });  // Non-std::exception throw.
  pool.Submit([&] { ++survivors; });
  pool.Wait();
  EXPECT_EQ(survivors.load(), 2);
}

// --- ScanFragments: attempts, retries and exhaustion. ---

// Matches records whose ids are congruent mod 7; throws on every
// comparison that involves id `poison`, so each attempt at a fragment
// that scans that record fails.
class PoisonedModTheory final : public EquationalTheory {
 public:
  explicit PoisonedModTheory(unsigned long poison) : poison_(poison) {}
  bool Matches(const Record& a, const Record& b) const override {
    ++count_;
    if (Id(a) == poison_ || Id(b) == poison_) {
      throw std::runtime_error("poisoned comparison");
    }
    return Id(a) % 7 == Id(b) % 7;
  }
  uint64_t comparison_count() const override { return count_; }
  std::unique_ptr<EquationalTheory> Clone() const override {
    return std::make_unique<PoisonedModTheory>(poison_);
  }

 private:
  static unsigned long Id(const Record& r) {
    return std::strtoul(std::string(r.field(0)).c_str(), nullptr, 10);
  }
  unsigned long poison_;
  mutable uint64_t count_ = 0;
};

class ScanFragmentsTest : public ::testing::Test {
 protected:
  // Two jobs over 400 id records: ascending and descending order, each cut
  // into 10 fragments of 40 positions with a window-4 band (fragment f is
  // [40f - 4, 40f + 40)).
  void SetUp() override {
    FaultInjector::Global().Reset();
    MetricsRegistry::Global().Reset();
    for (size_t i = 0; i < 400; ++i) {
      dataset_.Append(Record({std::to_string(i)}));
    }
    ascending_.resize(400);
    std::iota(ascending_.begin(), ascending_.end(), 0);
    descending_.assign(ascending_.rbegin(), ascending_.rend());
    for (const std::vector<TupleId>* order : {&ascending_, &descending_}) {
      FragmentScanJob job;
      job.order = order;
      job.fragments = MakeOverlappingFragments(400, 10, kWindow);
      jobs_.push_back(job);
    }
    PoisonedModTheory theory(/*poison=*/1000);  // No record has id 1000.
    serial_comparisons_ =
        WindowScanner(kWindow)
            .Scan(dataset_, ascending_, theory, &serial_)
            .comparisons;
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  FragmentScanReport Scan(unsigned long poison, size_t workers) {
    return ScanFragments(
        dataset_, kWindow, jobs_,
        [poison] { return std::make_unique<PoisonedModTheory>(poison); },
        workers);
  }

  static constexpr size_t kWindow = 5;
  Dataset dataset_{Schema({"id"})};
  std::vector<TupleId> ascending_;
  std::vector<TupleId> descending_;
  std::vector<FragmentScanJob> jobs_;
  PairSet serial_;
  uint64_t serial_comparisons_ = 0;
};

TEST_F(ScanFragmentsTest, CommitsEveryFragmentOnceWithoutFaults) {
  FragmentScanReport report = Scan(/*poison=*/1000, /*workers=*/3);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  for (const FragmentScanResult& job : report.jobs) {
    EXPECT_TRUE(job.complete);
    EXPECT_EQ(job.pairs.ToSortedVector(), serial_.ToSortedVector());
    EXPECT_EQ(job.stats.comparisons, serial_comparisons_);
  }
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter(metric_names::kParallelTasks), 20u);
  EXPECT_EQ(snapshot.counter(metric_names::kResilientRetries), 0u);
  EXPECT_EQ(snapshot.counter(metric_names::kSnmComparisons),
            2 * serial_comparisons_);
}

TEST_F(ScanFragmentsTest, RetriesFailedAttemptsAndFlushesOnce) {
  // The first four attempts fail. A failed fragment retries behind the
  // other queued fragments, so the failures land on several fragments
  // (on one worker, on the first four); every fragment commits, and only
  // its successful attempt flushes.
  for (size_t workers : {1, 2}) {
    SCOPED_TRACE(workers);
    FaultInjector::Global().Arm(fault_points::kFragmentScan,
                                FaultSchedule::FailN(4));
    MetricsRegistry::Global().Reset();
    FragmentScanReport report = Scan(/*poison=*/1000, workers);
    ASSERT_TRUE(report.status.ok()) << report.status.ToString();
    for (const FragmentScanResult& job : report.jobs) {
      EXPECT_TRUE(job.complete);
      EXPECT_EQ(job.pairs.ToSortedVector(), serial_.ToSortedVector());
    }
    MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(snapshot.counter(metric_names::kFaultsTripped), 4u);
    EXPECT_EQ(snapshot.counter(metric_names::kResilientRetries), 4u);
    EXPECT_EQ(snapshot.counter(metric_names::kParallelTasks), 20u);
    EXPECT_EQ(snapshot.counter(metric_names::kSnmComparisons),
              2 * serial_comparisons_);
  }
}

TEST_F(ScanFragmentsTest, ThrowingFragmentsExhaustAndAreNamed) {
  // Id 150 sits at position 150 of the ascending order (fragment 3,
  // [116, 160)) and 249 of the descending one (fragment 6, [236, 280));
  // no other fragment's window reaches it.
  FragmentScanReport report = Scan(/*poison=*/150, /*workers=*/3);
  EXPECT_EQ(report.status.code(), StatusCode::kPartialFailure);
  EXPECT_NE(report.status.message().find("2 of 20 fragments unprocessed"),
            std::string::npos)
      << report.status.message();
  EXPECT_NE(report.status.message().find("[0:116-160,1:236-280]"),
            std::string::npos)
      << report.status.message();
  EXPECT_NE(report.status.message().find("poisoned comparison"),
            std::string::npos)
      << report.status.message();
  for (const FragmentScanResult& job : report.jobs) {
    EXPECT_FALSE(job.complete);
    EXPECT_TRUE(job.pairs.empty());
  }
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter(metric_names::kResilientExhausted), 2u);
  EXPECT_EQ(snapshot.counter(metric_names::kResilientRetries),
            2 * (kMaxAttempts - 1));
  EXPECT_EQ(snapshot.counter(metric_names::kParallelTasks), 18u);
}

// --- Fault-injection equivalence matrix (the acceptance criterion):
// MultiPass under every programmed failure schedule, for both methods,
// produces the fault-free serial pass or names what it lost. ---

// Pins the process to its first allowed CPU for the object's lifetime, so
// MultiPass's pool has one worker and a fault schedule's verdicts reach
// the fragments in a fixed order.
class OneCpu {
 public:
  OneCpu() {
    sched_getaffinity(0, sizeof(allowed_), &allowed_);
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed_)) continue;
      CPU_SET(cpu, &one);
      break;
    }
    sched_setaffinity(0, sizeof(one), &one);
  }
  ~OneCpu() { sched_setaffinity(0, sizeof(allowed_), &allowed_); }

 private:
  cpu_set_t allowed_;
};

class FaultMatrixTest : public ::testing::TestWithParam<MultiPass::Method> {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    GeneratorConfig config;
    config.num_records = 900;
    config.duplicate_selection_rate = 0.5;
    config.max_duplicates_per_record = 4;
    config.seed = 4242;
    auto db = DatabaseGenerator(config).Generate();
    ASSERT_TRUE(db.ok());
    dataset_ = std::move(db->dataset);
    ConditionEmployeeDataset(&dataset_);
    options_.num_clusters = 24;

    for (const KeySpec& key : StandardThreeKeys()) {
      EmployeeTheory theory;
      auto serial = clustering()
                        ? ClusteringMethod(options_).Run(dataset_, key, theory)
                        : SortedNeighborhood(10).Run(dataset_, key, theory);
      ASSERT_TRUE(serial.ok());
      serial_.push_back(std::move(*serial));
    }
    MetricsRegistry::Global().Reset();
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  bool clustering() const {
    return GetParam() == MultiPass::Method::kClustering;
  }

  Result<MultiPassResult> Run() {
    return MultiPass(GetParam(), 10, options_)
        .Run(dataset_, StandardThreeKeys(), theory_);
  }

  // The run equals the serial passes, and the committed counters count
  // each comparison once however many attempts ran.
  void ExpectSerialPasses(const MultiPassResult& result) {
    ASSERT_EQ(result.passes.size(), serial_.size());
    uint64_t comparisons = 0;
    for (size_t i = 0; i < serial_.size(); ++i) {
      const PassResult& pass = result.passes[i];
      EXPECT_EQ(pass.pairs.ToSortedVector(),
                serial_[i].pairs.ToSortedVector());
      EXPECT_EQ(pass.comparisons, serial_[i].comparisons);
      EXPECT_EQ(pass.matches, serial_[i].matches);
      comparisons += serial_[i].comparisons;
    }
    EXPECT_EQ(MetricsRegistry::Global().Snapshot().counter(
                  metric_names::kSnmComparisons),
              comparisons);
  }

  Dataset dataset_;
  ClusteringOptions options_;
  EmployeeTheory theory_;
  std::vector<PassResult> serial_;
};

TEST_P(FaultMatrixTest, SurvivesFailedAttempts) {
  // The first four attempts fail, on the host's every CPU. The run has
  // more fragments than workers, so a failed fragment's retry waits
  // behind other fragments and the four failures cannot all land on it.
  FaultInjector::Global().Arm(fault_points::kFragmentScan,
                              FaultSchedule::FailN(4));
  auto result = Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().counter(
                metric_names::kResilientRetries),
            4u);
  ExpectSerialPasses(*result);
}

TEST_P(FaultMatrixTest, SurvivesSeededRandomFailures) {
  // On one worker the verdicts reach the fragments in a fixed order. At
  // rate 0.2 a fragment fails all four attempts with probability 0.0016,
  // so the seeds are picked for that order: each fails some attempts and
  // none a fragment's fourth. (For the 12 SNM fragments seed 2026 fails
  // nothing; for the 72 clustering fragments seed 7 exhausts one.)
  FaultInjector::Global().Arm(
      fault_points::kFragmentScan,
      FaultSchedule::RandomRate(0.2, clustering() ? 2026 : 7));
  OneCpu pinned;
  auto result = Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(MetricsRegistry::Global().Snapshot().counter(
                metric_names::kResilientRetries),
            0u);
  ExpectSerialPasses(*result);
}

TEST_P(FaultMatrixTest, ConcurrentRandomFailuresCommitOrNameTheirLoss) {
  // On every CPU, which fragment draws which verdict depends on timing,
  // and a fragment may draw four failures. Either way each failed attempt
  // was retried or exhausted its fragment, and a run that succeeds equals
  // the serial passes.
  FaultInjector::Global().Arm(
      fault_points::kFragmentScan,
      FaultSchedule::RandomRate(0.2, clustering() ? 7 : 2026));
  auto result = Run();
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const uint64_t exhausted =
      snapshot.counter(metric_names::kResilientExhausted);
  EXPECT_EQ(snapshot.counter(metric_names::kFaultsTripped),
            snapshot.counter(metric_names::kResilientRetries) + exhausted);
  if (result.ok()) {
    EXPECT_EQ(exhausted, 0u);
    ExpectSerialPasses(*result);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kPartialFailure);
    EXPECT_GT(exhausted, 0u);
  }
}

TEST_P(FaultMatrixTest, SurvivesPermanentStraggler) {
  // Every scan attempt straggles; the slow attempts still commit, once.
  FaultInjector::Global().Arm(fault_points::kFragmentScan,
                              FaultSchedule::StraggleMs(60));
  auto result = Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSerialPasses(*result);
}

TEST_P(FaultMatrixTest, ReportsPartialFailureWhenRetriesExhausted) {
  FaultInjector::Global().Arm(fault_points::kFragmentScan,
                              FaultSchedule::FailN(1u << 20));
  auto result = Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kPartialFailure);
  EXPECT_NE(result.status().message().find("unprocessed"),
            std::string::npos);
  EXPECT_GT(MetricsRegistry::Global().Snapshot().counter(
                metric_names::kResilientExhausted),
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, FaultMatrixTest,
    ::testing::Values(MultiPass::Method::kSortedNeighborhood,
                      MultiPass::Method::kClustering),
    [](const ::testing::TestParamInfo<MultiPass::Method>& info) {
      return info.param == MultiPass::Method::kClustering
                 ? std::string("Clustering")
                 : std::string("SortedNeighborhood");
    });

// --- Checkpoint/resume. ---

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    GeneratorConfig config;
    config.num_records = 500;
    config.duplicate_selection_rate = 0.5;
    config.seed = 11;
    auto db = DatabaseGenerator(config).Generate();
    ASSERT_TRUE(db.ok());
    dataset_ = std::move(db->dataset);
    ConditionEmployeeDataset(&dataset_);
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  const std::string& dir() const { return dir_.path(); }

  TempDir dir_;
  Dataset dataset_;
  EmployeeTheory theory_;
};

TEST_F(CheckpointTest, ManifestRoundTrips) {
  PassManifest manifest;
  manifest.key_name = "last-name";
  manifest.key_digest = 0xabcdef;
  manifest.config_digest = 0x1234;
  manifest.dataset_digest = 0x5678;
  manifest.pairs_file = PairsFileName(0);
  manifest.complete = true;
  PairSet pairs;
  pairs.Add(1, 2);
  pairs.Add(3, 9);
  ASSERT_TRUE(WritePassCheckpoint(dir(), 0, manifest, pairs).ok());

  auto read = ReadPassManifest(dir(), 0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(ManifestMatches(*read, "last-name", 0xabcdef, 0x1234,
                              0x5678));
  EXPECT_FALSE(ManifestMatches(*read, "last-name", 0xabcdef, 0x1234,
                               0x9999));
  auto stored = LoadCheckpointedPairs(dir(), *read, 10);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->size(), 2u);
  EXPECT_TRUE(stored->Contains(3, 9));

  // No stray temp files after the write-to-temp + rename protocol.
  for (const auto& entry : std::filesystem::directory_iterator(dir())) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  EXPECT_EQ(ReadPassManifest(dir(), 1).status().code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointTest, SecondRunResumesEveryPass) {
  MultiPass multipass(MultiPass::Method::kSortedNeighborhood, 10);
  std::vector<KeySpec> keys = {LastNameKey(), FirstNameKey(), AddressKey()};

  auto first = multipass.Run(dataset_, keys, theory_, dir());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->passes_resumed, 0u);

  auto second = multipass.Run(dataset_, keys, theory_, dir());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->passes_resumed, 3u);
  for (const PassResult& pass : second->passes) EXPECT_TRUE(pass.resumed);
  EXPECT_EQ(second->component_of, first->component_of);
  EXPECT_EQ(second->union_pair_count, first->union_pair_count);
}

TEST_F(CheckpointTest, KilledBetweenPassesResumesToIdenticalResult) {
  MultiPass multipass(MultiPass::Method::kSortedNeighborhood, 10);
  std::vector<KeySpec> keys = {LastNameKey(), FirstNameKey(), AddressKey()};

  // Fault-free baseline (no checkpointing).
  auto baseline = multipass.Run(dataset_, keys, theory_);
  ASSERT_TRUE(baseline.ok());

  // "Kill" the run between passes: pass 0's checkpoint lands, then the
  // pairs write of pass 1 fails and the run aborts.
  FaultInjector::Global().Arm(fault_points::kPairsWrite,
                              FaultSchedule::FailN(1, /*skip=*/1));
  auto killed = multipass.Run(dataset_, keys, theory_, dir());
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kInjectedFault);
  FaultInjector::Global().Reset();

  // Pass 0 must be checkpointed, pass 1 must not be.
  EXPECT_TRUE(ReadPassManifest(dir(), 0).ok());
  EXPECT_FALSE(ReadPassManifest(dir(), 1).ok());

  // Resume: pass 0 is loaded, passes 1-2 recomputed; the closure equals
  // the fault-free run exactly.
  auto resumed = multipass.Run(dataset_, keys, theory_, dir());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->passes_resumed, 1u);
  EXPECT_TRUE(resumed->passes[0].resumed);
  EXPECT_FALSE(resumed->passes[1].resumed);
  EXPECT_EQ(resumed->component_of, baseline->component_of);
  EXPECT_EQ(resumed->union_pair_count, baseline->union_pair_count);
}

TEST_F(CheckpointTest, ChangedParametersInvalidateCheckpoint) {
  std::vector<KeySpec> keys = {LastNameKey()};
  MultiPass w10(MultiPass::Method::kSortedNeighborhood, 10);
  ASSERT_TRUE(w10.Run(dataset_, keys, theory_, dir()).ok());

  // Different window -> config digest differs -> no resume.
  MultiPass w20(MultiPass::Method::kSortedNeighborhood, 20);
  auto rerun = w20.Run(dataset_, keys, theory_, dir());
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->passes_resumed, 0u);

  // Different dataset -> dataset digest differs -> no resume.
  Dataset smaller(dataset_.schema());
  for (size_t t = 0; t + 1 < dataset_.size(); ++t) {
    smaller.Append(dataset_.record(static_cast<TupleId>(t)));
  }
  auto other = w20.Run(smaller, keys, theory_, dir());
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->passes_resumed, 0u);
}

TEST_F(CheckpointTest, EngineResumesToByteIdenticalOutput) {
  // The CLI-level guarantee behind `mergepurge --resume=DIR`: a run
  // killed between passes, restarted with the same flags, produces
  // byte-identical purged output to the never-killed run.
  MergePurgeOptions options;
  options.keys = {LastNameKey(), FirstNameKey(), AddressKey()};
  options.window = 10;

  MergePurgeEngine plain(options);
  auto baseline = plain.Run(dataset_, theory_);
  ASSERT_TRUE(baseline.ok());
  std::string baseline_csv = WriteCsvString(baseline->Purge(dataset_));

  options.checkpoint_dir = dir();
  MergePurgeEngine checkpointed(options);
  FaultInjector::Global().Arm(fault_points::kPairsWrite,
                              FaultSchedule::FailN(1, /*skip=*/1));
  ASSERT_FALSE(checkpointed.Run(dataset_, theory_).ok());
  FaultInjector::Global().Reset();

  auto resumed = checkpointed.Run(dataset_, theory_);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->detail.passes_resumed, 1u);
  EXPECT_EQ(WriteCsvString(resumed->Purge(dataset_)), baseline_csv);
}

}  // namespace
}  // namespace mergepurge
