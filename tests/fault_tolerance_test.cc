// Fault-tolerance layer: FaultInjector schedules, ThreadPool exception
// capture, ResilientRunner retry/reassignment/deadline/partial-result
// semantics, the fault-injection equivalence matrix (parallel runs under
// every programmed failure schedule produce the fault-free pair set), and
// checkpoint/resume for multi-pass runs.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
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
#include "parallel/parallel_clustering.h"
#include "parallel/parallel_snm.h"
#include "parallel/resilient_runner.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"
#include "util/fault_injector.h"
#include "util/thread_pool.h"

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
                               "sort.spill=straggle:5")
                  .ok());
  EXPECT_FALSE(injector.OnPoint(fault_points::kFragmentScan).ok());
  EXPECT_FALSE(injector.OnPoint(fault_points::kFragmentScan).ok());
  EXPECT_TRUE(injector.OnPoint(fault_points::kFragmentScan).ok());
  EXPECT_TRUE(injector.OnPoint(fault_points::kSortSpill).ok());
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

TEST(ThreadPoolTest, ThrowingTaskIsCaughtAndReported) {
  ThreadPool pool(2);
  std::atomic<int> survivors{0};
  pool.Submit([] { throw std::runtime_error("task blew up"); });
  pool.Submit([&] { ++survivors; });
  pool.Submit([] { throw 42; });  // Non-std::exception throw.
  pool.Submit([&] { ++survivors; });
  pool.Wait();
  EXPECT_EQ(survivors.load(), 2);
  EXPECT_EQ(pool.exceptions_caught(), 2u);
  // First message is one of the two (ordering depends on scheduling).
  std::string message = pool.first_exception_message();
  EXPECT_TRUE(message == "task blew up" || message == "unknown exception")
      << message;
}

// --- ResilientRunner. ---

TEST(ResilientRunnerTest, AllTasksCommitWithoutFaults) {
  ResilientOptions options;
  options.num_workers = 3;
  ResilientRunner runner(options);
  std::atomic<int> total{0};
  std::vector<ResilientTask> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back([&, i](const AttemptContext& ctx) {
      ctx.Commit([&] { total += i; });
      return Status::OK();
    });
  }
  ResilientReport report = runner.Run(tasks);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(total.load(), 45);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_TRUE(report.unprocessed.empty());
}

TEST(ResilientRunnerTest, RetriesTransientFailures) {
  ResilientOptions options;
  options.num_workers = 2;
  options.max_attempts_per_worker = 2;
  ResilientRunner runner(options);

  // Each task fails its first attempt.
  std::vector<std::unique_ptr<std::atomic<int>>> attempt_counts;
  std::atomic<int> commits{0};
  std::vector<ResilientTask> tasks;
  for (int i = 0; i < 6; ++i) {
    attempt_counts.push_back(std::make_unique<std::atomic<int>>(0));
    std::atomic<int>* count = attempt_counts.back().get();
    tasks.push_back([&, count](const AttemptContext& ctx) {
      if (count->fetch_add(1) == 0) {
        return Status::Internal("transient");
      }
      ctx.Commit([&] { ++commits; });
      return Status::OK();
    });
  }
  ResilientReport report = runner.Run(tasks);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(commits.load(), 6);
  EXPECT_EQ(report.retries, 6u);
  for (const TaskOutcome& outcome : report.outcomes) {
    EXPECT_EQ(outcome.attempts, 2u);
    EXPECT_TRUE(outcome.committed);
  }
}

TEST(ResilientRunnerTest, ReassignsToAnotherWorkerAfterMaxAttempts) {
  ResilientOptions options;
  options.num_workers = 2;
  options.max_attempts_per_worker = 2;
  options.max_workers_per_task = 2;
  ResilientRunner runner(options);

  // Fails every attempt on the initial worker (0); succeeds elsewhere.
  std::vector<ResilientTask> tasks;
  std::atomic<int> commits{0};
  tasks.push_back([&](const AttemptContext& ctx) {
    if (ctx.worker == 0) return Status::Internal("site 0 is down");
    ctx.Commit([&] { ++commits; });
    return Status::OK();
  });
  ResilientReport report = runner.Run(tasks, /*initial_workers=*/{0});
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(commits.load(), 1);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].final_worker, 1u);
  EXPECT_EQ(report.outcomes[0].attempts, 3u);  // 2 on worker 0, 1 on 1.
}

TEST(ResilientRunnerTest, ExhaustionReportsExactUnprocessedSet) {
  ResilientOptions options;
  options.num_workers = 2;
  options.max_attempts_per_worker = 1;
  options.max_workers_per_task = 2;
  ResilientRunner runner(options);

  std::atomic<int> commits{0};
  std::vector<ResilientTask> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&, i](const AttemptContext& ctx) {
      if (i == 1 || i == 3) return Status::Internal("permanent");
      ctx.Commit([&] { ++commits; });
      return Status::OK();
    });
  }
  ResilientReport report = runner.Run(tasks);
  EXPECT_EQ(report.status.code(), StatusCode::kPartialFailure);
  EXPECT_EQ(report.unprocessed, (std::vector<size_t>{1, 3}));
  EXPECT_EQ(commits.load(), 3);
  EXPECT_NE(report.status.message().find("[1,3]"), std::string::npos)
      << report.status.message();
}

TEST(ResilientRunnerTest, DeadlineSpawnsSpeculativeCopyAndCommitsOnce) {
  ResilientOptions options;
  options.num_workers = 2;
  options.task_deadline_ms = 30;
  ResilientRunner runner(options);

  // First attempt straggles; the speculative copy finishes first. The
  // commit protocol must apply the result exactly once either way.
  std::atomic<int> attempts{0};
  std::atomic<int> commits{0};
  std::vector<ResilientTask> tasks;
  tasks.push_back([&](const AttemptContext& ctx) {
    if (attempts.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    ctx.Commit([&] { ++commits; });
    return Status::OK();
  });
  ResilientReport report = runner.Run(tasks);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(commits.load(), 1);
  EXPECT_EQ(report.speculations, 1u);
  EXPECT_GE(attempts.load(), 2);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].speculated);
}

// --- Fault-injection equivalence matrix (the acceptance criterion). ---

class FaultMatrixTest : public ::testing::Test {
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

    EmployeeTheory serial_theory;
    auto serial =
        SortedNeighborhood(10).Run(dataset_, LastNameKey(), serial_theory);
    ASSERT_TRUE(serial.ok());
    serial_pairs_ = std::move(serial->pairs);
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  void ExpectSerialPairs(const ParallelRunResult& result) {
    EXPECT_EQ(result.pairs.size(), serial_pairs_.size());
    serial_pairs_.ForEach([&](TupleId a, TupleId b) {
      EXPECT_TRUE(result.pairs.Contains(a, b));
    });
  }

  Dataset dataset_;
  const TheoryFactory factory_ = EmployeeTheory::Factory();
  PairSet serial_pairs_;
};

TEST_F(FaultMatrixTest, SnmSurvivesFailOncePerFragment) {
  // Every fragment's first scan attempt fails; retries recover all of
  // them and the pair set is exactly the fault-free one.
  FaultInjector::Global().Arm(fault_points::kFragmentScan,
                              FaultSchedule::FailN(4));  // 4 fragments.
  ParallelSnm parallel(4, 10);
  auto result = parallel.Run(dataset_, LastNameKey(), factory_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->retries, 4u);
  ExpectSerialPairs(*result);
}

TEST_F(FaultMatrixTest, SnmSurvivesSeededRandomFailures) {
  FaultInjector::Global().Arm(fault_points::kFragmentScan,
                              FaultSchedule::RandomRate(0.2, 2026));
  ResilientOptions resilience;
  resilience.max_attempts_per_worker = 3;
  resilience.max_workers_per_task = 3;
  ParallelSnm parallel(3, 10, /*block_records=*/64, resilience);
  auto result = parallel.Run(dataset_, LastNameKey(), factory_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSerialPairs(*result);
}

TEST_F(FaultMatrixTest, SnmSurvivesPermanentStraggler) {
  // Every scan attempt straggles past the deadline; speculative copies
  // also straggle but complete — first finished commit wins, and the
  // result is still exactly the serial pair set.
  FaultInjector::Global().Arm(fault_points::kFragmentScan,
                              FaultSchedule::StraggleMs(60));
  ResilientOptions resilience;
  resilience.task_deadline_ms = 25;
  ParallelSnm parallel(2, 10, /*block_records=*/0, resilience);
  auto result = parallel.Run(dataset_, LastNameKey(), factory_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSerialPairs(*result);
}

TEST_F(FaultMatrixTest, SnmReportsPartialFailureWhenRetriesExhausted) {
  FaultInjector::Global().Arm(fault_points::kFragmentScan,
                              FaultSchedule::FailN(1u << 20));
  ParallelSnm parallel(3, 10);
  auto result = parallel.Run(dataset_, LastNameKey(), factory_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kPartialFailure);
  EXPECT_NE(result.status().message().find("unprocessed"),
            std::string::npos);
}

TEST_F(FaultMatrixTest, ClusteringSurvivesFailures) {
  // Serial clustering baseline with the same TOTAL cluster count.
  ClusteringOptions serial_options;
  serial_options.num_clusters = 8 * 3;
  serial_options.window = 10;
  EmployeeTheory serial_theory;
  auto serial = ClusteringMethod(serial_options)
                    .Run(dataset_, LastNameKey(), serial_theory);
  ASSERT_TRUE(serial.ok());

  FaultInjector::Global().Arm(fault_points::kClusterSnm,
                              FaultSchedule::RandomRate(0.2, 7));
  ClusteringOptions parallel_options;
  parallel_options.num_clusters = 8;
  parallel_options.window = 10;
  ResilientOptions resilience;
  resilience.max_attempts_per_worker = 3;
  resilience.max_workers_per_task = 3;
  ParallelClustering parallel(3, parallel_options, resilience);
  auto result = parallel.Run(dataset_, LastNameKey(), factory_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->pairs.size(), serial->pairs.size());
  serial->pairs.ForEach([&](TupleId a, TupleId b) {
    EXPECT_TRUE(result->pairs.Contains(a, b));
  });
}

TEST_F(FaultMatrixTest, ClusteringReportsPartialFailureWhenExhausted) {
  FaultInjector::Global().Arm(fault_points::kClusterSnm,
                              FaultSchedule::FailN(1u << 20));
  ClusteringOptions options;
  options.num_clusters = 4;
  ParallelClustering parallel(2, options);
  auto result = parallel.Run(dataset_, LastNameKey(), factory_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kPartialFailure);
}

// --- Checkpoint/resume. ---

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    dir_ = std::filesystem::temp_directory_path() /
           ("mergepurge_ckpt_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);

    GeneratorConfig config;
    config.num_records = 500;
    config.duplicate_selection_rate = 0.5;
    config.seed = 11;
    auto db = DatabaseGenerator(config).Generate();
    ASSERT_TRUE(db.ok());
    dataset_ = std::move(db->dataset);
    ConditionEmployeeDataset(&dataset_);
  }

  void TearDown() override {
    FaultInjector::Global().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir() const { return dir_.string(); }

  std::filesystem::path dir_;
  Dataset dataset_;
  EmployeeTheory theory_;
};

TEST_F(CheckpointTest, ManifestRoundTrips) {
  std::filesystem::create_directories(dir_);
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
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
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

TEST_F(CheckpointTest, SortSpillFaultAbortsExternalSortPass) {
  // The sort.spill point wires the external-sort spill path into the
  // same injector; a spill failure surfaces as a Status, not a crash.
  FaultInjector::Global().Arm(fault_points::kSortSpill,
                              FaultSchedule::FailOnce());
  SnmOptions options;
  options.window = 10;
  options.external_sort_memory = 64;
  options.temp_dir = dir();
  std::filesystem::create_directories(dir_);
  auto result =
      SortedNeighborhood(options).Run(dataset_, LastNameKey(), theory_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInjectedFault);

  // Disarmed, the same configuration succeeds.
  FaultInjector::Global().Reset();
  auto retry =
      SortedNeighborhood(options).Run(dataset_, LastNameKey(), theory_);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

}  // namespace
}  // namespace mergepurge
