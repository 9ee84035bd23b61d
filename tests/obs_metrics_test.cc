// MetricsRegistry: counter exactness under multi-thread contention,
// gauge semantics, histogram bucket boundaries (table-driven), registry
// snapshot/reset behaviour, and the pre-registered standard catalog.

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

namespace mergepurge {
namespace {

TEST(CounterTest, SingleThreadExact) {
  Counter counter("t.single");
  for (int i = 0; i < 1000; ++i) counter.Increment();
  counter.Add(42);
  EXPECT_EQ(counter.Value(), 1042u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, ContendedSnapshotEqualsExactSum) {
  // N threads each add a known arithmetic series; once quiescent, the
  // striped counter must equal the exact sum — no lost increments.
  Counter counter("t.contended");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 200000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add(1 + static_cast<uint64_t>(t % 3));
      }
    });
  }
  uint64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected += kPerThread * (1 + static_cast<uint64_t>(t % 3));
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), expected);
}

TEST(GaugeTest, LastWriteWinsAndAdd) {
  Gauge gauge("t.gauge");
  gauge.Set(3.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.5);
  gauge.Add(1.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 5.0);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

TEST(LatencyHistogramTest, BucketBoundariesTableDriven) {
  // Bounds {1, 10, 100}: bucket 0 counts v <= 1, bucket 1 counts
  // 1 < v <= 10, bucket 2 counts 10 < v <= 100, bucket 3 overflows.
  struct Case {
    double value;
    size_t expected_bucket;
  };
  const Case kCases[] = {
      {0.0, 0},  {0.5, 0},   {1.0, 0},     // At the bound: inclusive.
      {1.01, 1}, {10.0, 1},                // Just past a bound: next.
      {10.5, 2}, {100.0, 2},
      {100.5, 3}, {1e9, 3},                // Overflow bucket.
  };
  for (const Case& c : kCases) {
    LatencyHistogram histogram("t.bounds", {1.0, 10.0, 100.0});
    histogram.Record(c.value);
    HistogramSnapshot snap = histogram.Snapshot();
    ASSERT_EQ(snap.counts.size(), 4u);
    for (size_t i = 0; i < snap.counts.size(); ++i) {
      EXPECT_EQ(snap.counts[i], i == c.expected_bucket ? 1u : 0u)
          << "value " << c.value << " bucket " << i;
    }
    EXPECT_EQ(snap.count, 1u);
    EXPECT_DOUBLE_EQ(snap.sum, c.value);
  }
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllCounted) {
  LatencyHistogram histogram("t.conc", {8.0, 64.0, 512.0});
  constexpr int kThreads = 6;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<double>(i % 1000));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count,
            static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(LatencyHistogramTest, ExponentialBoundsShape) {
  std::vector<double> bounds =
      LatencyHistogram::ExponentialBounds(1.0, 4.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[4], 256.0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

TEST(MetricsRegistryTest, HandlesAreStableAndSharedByName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x.count");
  Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);
  a->Add(7);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("x.count"), 7u);
  EXPECT_EQ(snap.counter("absent"), 0u);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("y.count");
  LatencyHistogram* histogram = registry.GetHistogram("y.us");
  counter->Add(3);
  histogram->Record(5.0);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0u);  // Same handle, zeroed.
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("y.count"), 0u);
  EXPECT_EQ(snap.histograms.at("y.us").count, 0u);
}

TEST(MetricsRegistryTest, StandardCatalogPreregistersRequiredKeys) {
  MetricsRegistry registry;
  PreregisterStandardMetrics(registry);
  MetricsSnapshot snap = registry.Snapshot();
  for (const char* name :
       {metric_names::kSnmWindows, metric_names::kSnmComparisons,
        metric_names::kClosureUnions, metric_names::kParallelTasks,
        metric_names::kFaultsTripped}) {
    EXPECT_TRUE(snap.counters.count(name)) << name;
    EXPECT_EQ(snap.counter(name), 0u) << name;
  }
  EXPECT_TRUE(snap.histograms.count(metric_names::kSnmScanUs));
}

}  // namespace
}  // namespace mergepurge
