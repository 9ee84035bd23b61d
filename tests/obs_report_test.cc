// RunReport: the standard catalog is pre-registered at zero, and pass and
// closure stats serialize into a document that round-trips through text.

#include <gtest/gtest.h>

#include "core/multipass.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

namespace mergepurge {
namespace {

namespace mn = metric_names;

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
        mn::kParallelTasks, mn::kFaultsTripped, mn::kCheckpointSaves}) {
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

}  // namespace
}  // namespace mergepurge
