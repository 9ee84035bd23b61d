// RunReport + pipeline instrumentation: the standard catalog is
// pre-registered at zero, a fault-injected multi-pass run reports nonzero
// resilient.retries / faults.tripped while producing exactly the
// fault-free pair sets, and committed counters are exactly-once (retried
// fragments do not double-count comparisons).

#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/multipass.h"
#include "core/sorted_neighborhood.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"
#include "util/fault_injector.h"

namespace mergepurge {
namespace {

namespace mn = metric_names;

class FaultInjectorGuard {
 public:
  FaultInjectorGuard() { FaultInjector::Global().Reset(); }
  ~FaultInjectorGuard() { FaultInjector::Global().Reset(); }
};

TEST(RunReportTest, PreregisteredKeysPresentAtZero) {
  MetricsRegistry registry;
  RunReport report("unit", &registry);
  report.SetOutcome(true);
  report.CaptureMetrics();
  JsonValue doc = report.ToJson();
  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* name :
       {mn::kSnmWindows, mn::kSnmComparisons, mn::kClosureUnions,
        mn::kResilientRetries, mn::kFaultsTripped, mn::kCheckpointSaves}) {
    const JsonValue* value = counters->Find(name);
    ASSERT_NE(value, nullptr) << name;
    EXPECT_EQ(value->int_value(), 0) << name;
  }
  const JsonValue* histograms = doc.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  EXPECT_NE(histograms->Find(mn::kSnmScanUs), nullptr);
  EXPECT_EQ(doc.Find("tool")->string_value(), "unit");
  EXPECT_TRUE(doc.Find("outcome")->Find("ok")->bool_value());
}

TEST(RunReportTest, SerializesPassAndClosureStats) {
  MetricsRegistry registry;
  RunReport report("unit", &registry);
  PassResult pass;
  pass.key_name = "last-name";
  pass.windows = 99;
  pass.comparisons = 450;
  pass.matches = 12;
  pass.total_seconds = 0.5;
  report.AddPass(pass);
  JsonValue doc = report.ToJson();
  const JsonValue* passes = doc.Find("passes");
  ASSERT_NE(passes, nullptr);
  ASSERT_EQ(passes->size(), 1u);
  EXPECT_EQ(passes->at(0).Find("key")->string_value(), "last-name");
  EXPECT_EQ(passes->at(0).Find("windows")->int_value(), 99);
  EXPECT_EQ(passes->at(0).Find("comparisons")->int_value(), 450);
  // Scan time is labelled as busy time; the run's wall time sits in the
  // closure block.
  EXPECT_NE(passes->at(0).Find("scan_busy_seconds"), nullptr);
  EXPECT_EQ(passes->at(0).Find("scan_seconds"), nullptr);
  MultiPassResult multipass;
  multipass.passes.push_back(pass);
  multipass.total_seconds = 1.5;
  report.SetMultiPass(multipass);
  const JsonValue with_closure = report.ToJson();
  const JsonValue* closure = with_closure.Find("closure");
  ASSERT_NE(closure, nullptr);
  ASSERT_NE(closure->Find("run_wall_seconds"), nullptr);
  EXPECT_DOUBLE_EQ(closure->Find("run_wall_seconds")->double_value(), 1.5);
  // The document must round-trip through text for the validators.
  Result<JsonValue> parsed = JsonValue::Parse(doc.Dump(1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

class FaultedRunMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    GeneratorConfig config;
    config.num_records = 800;
    config.duplicate_selection_rate = 0.5;
    config.seed = 777;
    auto db = DatabaseGenerator(config).Generate();
    ASSERT_TRUE(db.ok());
    dataset_ = std::move(db->dataset);
    ConditionEmployeeDataset(&dataset_);
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  Dataset dataset_;
  EmployeeTheory theory_;
};

TEST_F(FaultedRunMetricsTest, FaultedRunReportsRetriesAndSamePairs) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  MultiPass multipass(MultiPass::Method::kSortedNeighborhood, 10);
  const std::vector<KeySpec> keys = StandardThreeKeys();

  // Baseline: clean parallel run; note committed comparison count.
  registry.Reset();
  auto clean = multipass.Run(dataset_, keys, theory_);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  MetricsSnapshot clean_snap = registry.Snapshot();
  ASSERT_EQ(clean_snap.counter(mn::kResilientRetries), 0u);
  ASSERT_EQ(clean_snap.counter(mn::kFaultsTripped), 0u);
  const uint64_t clean_comparisons =
      clean_snap.counter(mn::kSnmComparisons);
  ASSERT_GT(clean_comparisons, 0u);

  // Faulted: the first four scan attempts fail; the run must retry, trip
  // fault points, and still commit the identical pair sets.
  registry.Reset();
  FaultInjectorGuard guard;
  FaultInjector::Global().Arm(fault_points::kFragmentScan,
                              FaultSchedule::FailN(4));
  auto faulted = multipass.Run(dataset_, keys, theory_);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();

  MetricsSnapshot faulted_snap = registry.Snapshot();
  EXPECT_GT(faulted_snap.counter(mn::kResilientRetries), 0u);
  EXPECT_GT(faulted_snap.counter(mn::kFaultsTripped), 0u);

  // Same pair sets as the clean run.
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(faulted->passes[i].pairs.ToSortedVector(),
              clean->passes[i].pairs.ToSortedVector());
  }
  EXPECT_EQ(faulted->component_of, clean->component_of);

  // Exactly-once: failed attempts flush nothing, so the committed
  // comparison count matches the clean run despite the retries.
  EXPECT_EQ(faulted_snap.counter(mn::kSnmComparisons), clean_comparisons);

  // And the captured report carries the evidence.
  RunReport report("unit-faulted");
  report.CaptureMetrics();
  JsonValue doc = report.ToJson();
  EXPECT_GT(
      doc.Find("counters")->Find(mn::kResilientRetries)->int_value(), 0);
  EXPECT_GT(doc.Find("counters")->Find(mn::kFaultsTripped)->int_value(), 0);
}

}  // namespace
}  // namespace mergepurge
