// RunReport: a report lists only the metrics its registry holds, writes
// histograms as quantile summaries, and serializes pass and closure stats
// into a document that round-trips through text.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/multipass.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

namespace mergepurge {
namespace {

namespace mn = metric_names;

TEST(RunReportTest, FreshRegistryReportsNoMetrics) {
  MetricsRegistry registry;
  RunReport report("unit", &registry);
  report.SetOutcome(true);
  report.CaptureMetrics();
  JsonValue doc = report.ToJson();
  ASSERT_NE(doc.Find("counters"), nullptr);
  ASSERT_NE(doc.Find("histograms"), nullptr);
  EXPECT_TRUE(doc.Find("counters")->members().empty());
  EXPECT_TRUE(doc.Find("histograms")->members().empty());
  EXPECT_EQ(doc.Find("schema_version")->int_value(), 3);
  EXPECT_EQ(doc.Find("tool")->string_value(), "unit");
  EXPECT_TRUE(doc.Find("outcome")->Find("ok")->bool_value());
}

TEST(RunReportTest, HistogramsSerializeAsQuantileSummaries) {
  MetricsRegistry registry;
  LatencyHistogram* scan_us = registry.GetHistogram(mn::kSnmScanUs);
  for (double v : {12.0, 90.0, 95.0, 7000.0}) scan_us->Record(v);
  RunReport report("unit", &registry);
  report.CaptureMetrics();
  JsonValue doc = report.ToJson();
  const JsonValue* summary = doc.Find("histograms")->Find(mn::kSnmScanUs);
  ASSERT_NE(summary, nullptr);
  std::vector<std::string> keys;
  for (const auto& [key, value] : summary->members()) keys.push_back(key);
  ASSERT_EQ(keys,
            (std::vector<std::string>{"count", "sum", "p50", "p90", "p99"}));
  const HistogramSnapshot h = scan_us->Snapshot();
  EXPECT_EQ(summary->Find("count")->int_value(), 4);
  EXPECT_DOUBLE_EQ(summary->Find("sum")->double_value(), h.sum);
  EXPECT_DOUBLE_EQ(summary->Find("p50")->double_value(),
                   HistogramQuantile(h, 0.50));
  EXPECT_DOUBLE_EQ(summary->Find("p90")->double_value(),
                   HistogramQuantile(h, 0.90));
  EXPECT_DOUBLE_EQ(summary->Find("p99")->double_value(),
                   HistogramQuantile(h, 0.99));
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
