// Fault-tolerance layer: the FaultInjector schedule, ThreadPool exception
// capture, ScanFragments' failure semantics (a throwing fragment fails
// its job once, is named, and leaves the other jobs complete), and
// checkpoint/resume for multi-pass runs.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/merge_purge.h"
#include "core/multipass.h"
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
      FaultInjector::Global().OnPoint(fault_points::kPairsWrite).ok());
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 0u);
}

TEST(FaultInjectorTest, FailOnceFailsExactlyOnce) {
  FaultInjectorGuard guard;
  FaultInjector injector;
  injector.Arm("p", FaultSchedule::FailN(1));
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

// --- ScanFragments: one run per fragment, failures named. ---

// Matches records whose ids are congruent mod 3; throws on every
// comparison that involves id `poison`, so a fragment that scans that
// record fails.
class PoisonedModTheory final : public EquationalTheory {
 public:
  explicit PoisonedModTheory(unsigned long poison) : poison_(poison) {}
  bool Matches(const Record& a, const Record& b) const override {
    ++count_;
    if (Id(a) == poison_ || Id(b) == poison_) {
      throw std::runtime_error("poisoned comparison");
    }
    return Id(a) % 3 == Id(b) % 3;
  }
  uint64_t comparison_count() const override { return count_; }
  void AddComparisons(uint64_t n) const override { count_ += n; }
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
  ASSERT_FALSE(serial_.empty());
  FragmentScanReport report = Scan(/*poison=*/1000, /*workers=*/3);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  for (const FragmentScanResult& job : report.jobs) {
    EXPECT_TRUE(job.complete);
    EXPECT_EQ(job.pairs.ToSortedVector(), serial_.ToSortedVector());
    EXPECT_EQ(job.stats.comparisons, serial_comparisons_);
  }
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter(metric_names::kParallelTasks), 20u);
  EXPECT_EQ(snapshot.counter(metric_names::kSnmComparisons),
            2 * serial_comparisons_);
}

TEST_F(ScanFragmentsTest, ThrowingFragmentsExhaustAndAreNamed) {
  // Id 150 sits at position 150 of the ascending order (fragment 3,
  // [116, 160)) and 249 of the descending one (fragment 6, [236, 280));
  // no other fragment's window reaches it. A third job's order groups
  // the ids by residue mod 3, so most of its pairs match, and leaves id 150
  // out, so that job completes beside the two failed ones.
  std::vector<TupleId> without_poison;
  for (TupleId residue = 0; residue < 3; ++residue) {
    for (TupleId t = residue; t < 400; t += 3) {
      if (t != 150) without_poison.push_back(t);
    }
  }
  FragmentScanJob third;
  third.order = &without_poison;
  third.fragments =
      MakeOverlappingFragments(without_poison.size(), 10, kWindow);
  jobs_.push_back(third);
  PairSet third_serial;
  PoisonedModTheory theory(/*poison=*/150);
  WindowScanner(kWindow).Scan(dataset_, without_poison, theory,
                              &third_serial);

  FragmentScanReport report = Scan(/*poison=*/150, /*workers=*/3);
  EXPECT_EQ(report.status.code(), StatusCode::kPartialFailure);
  EXPECT_NE(report.status.message().find(
                "2 of 30 fragments failed (job:begin-end): "
                "[0:116-160,1:236-280]; first error: "),
            std::string::npos)
      << report.status.message();
  EXPECT_NE(report.status.message().find("poisoned comparison"),
            std::string::npos)
      << report.status.message();
  ASSERT_EQ(report.jobs.size(), 3u);
  for (size_t j = 0; j < 2; ++j) {
    EXPECT_FALSE(report.jobs[j].complete) << j;
    EXPECT_TRUE(report.jobs[j].pairs.empty()) << j;
  }
  EXPECT_TRUE(report.jobs[2].complete);
  EXPECT_FALSE(third_serial.empty());
  EXPECT_EQ(report.jobs[2].pairs.ToSortedVector(),
            third_serial.ToSortedVector());
  // 18 of the poisoned jobs' 20 fragments succeed, and all 10 of the
  // third job's; only those flush their comparisons.
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter(metric_names::kParallelTasks), 18u + 10u);
  uint64_t committed = 0;
  for (const FragmentScanResult& job : report.jobs) {
    committed += job.stats.comparisons;
  }
  EXPECT_EQ(snapshot.counter(metric_names::kSnmComparisons), committed);
}

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
