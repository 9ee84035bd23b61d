// Windowed-rate math for live introspection (obs/window.h): snapshot
// diffing with counter-reset detection, quantile estimation from bucket
// counts (HistogramQuantile, obs/metrics.h), and the timestamped snapshot
// ring that turns "since boot" metrics into "over the last N seconds"
// rates.

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/window.h"

namespace mergepurge {
namespace {

HistogramSnapshot MakeHistogram(std::vector<double> bounds,
                                std::vector<uint64_t> counts,
                                double sum = 0.0) {
  HistogramSnapshot h;
  h.bounds = std::move(bounds);
  h.counts = std::move(counts);
  for (uint64_t c : h.counts) h.count += c;
  h.sum = sum;
  return h;
}

// --- DiffSnapshots. ---

TEST(DiffSnapshotsTest, CountersSubtract) {
  MetricsSnapshot older, newer;
  older.counters["requests"] = 100;
  newer.counters["requests"] = 140;
  MetricsSnapshot delta = DiffSnapshots(older, newer);
  EXPECT_EQ(delta.counter("requests"), 40u);
}

TEST(DiffSnapshotsTest, CounterResetDegradesToNewerValue) {
  // A counter that went backwards means the registry was reset between
  // the samples; the delta must not go negative (or wrap).
  MetricsSnapshot older, newer;
  older.counters["requests"] = 1000;
  newer.counters["requests"] = 7;
  MetricsSnapshot delta = DiffSnapshots(older, newer);
  EXPECT_EQ(delta.counter("requests"), 7u);
}

TEST(DiffSnapshotsTest, CounterOnlyInNewerPassesThrough) {
  MetricsSnapshot older, newer;
  newer.counters["fresh"] = 5;
  older.counters["stale"] = 9;
  MetricsSnapshot delta = DiffSnapshots(older, newer);
  EXPECT_EQ(delta.counter("fresh"), 5u);
  // Metrics that vanished have no meaningful rate; they are dropped.
  EXPECT_EQ(delta.counters.count("stale"), 0u);
}

TEST(DiffSnapshotsTest, GaugesAreInstantaneousAndPassThrough) {
  MetricsSnapshot older, newer;
  older.gauges["resident"] = 10.0;
  newer.gauges["resident"] = 4.0;  // Gauges may legitimately fall.
  MetricsSnapshot delta = DiffSnapshots(older, newer);
  ASSERT_EQ(delta.gauges.count("resident"), 1u);
  EXPECT_DOUBLE_EQ(delta.gauges["resident"], 4.0);
}

TEST(DiffSnapshotsTest, HistogramsDiffBucketwise) {
  MetricsSnapshot older, newer;
  older.histograms["h"] = MakeHistogram({1.0, 10.0}, {1, 2, 0}, 12.0);
  newer.histograms["h"] = MakeHistogram({1.0, 10.0}, {3, 5, 1}, 60.0);
  MetricsSnapshot delta = DiffSnapshots(older, newer);
  const HistogramSnapshot& h = delta.histograms.at("h");
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 3u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.count, 6u);
  EXPECT_DOUBLE_EQ(h.sum, 48.0);
}

TEST(DiffSnapshotsTest, HistogramBoundsMismatchFallsBackToNewer) {
  // Re-registration with different bounds: bucketwise subtraction would
  // be meaningless, so the newer histogram passes through whole.
  MetricsSnapshot older, newer;
  older.histograms["h"] = MakeHistogram({1.0}, {4, 4});
  newer.histograms["h"] = MakeHistogram({1.0, 10.0}, {1, 1, 1});
  MetricsSnapshot delta = DiffSnapshots(older, newer);
  const HistogramSnapshot& h = delta.histograms.at("h");
  EXPECT_EQ(h.bounds.size(), 2u);
  EXPECT_EQ(h.count, 3u);
}

TEST(DiffSnapshotsTest, HistogramResetFallsBackToNewer) {
  // A bucket that went backwards signals a reset, same as counters.
  MetricsSnapshot older, newer;
  older.histograms["h"] = MakeHistogram({1.0}, {10, 10});
  newer.histograms["h"] = MakeHistogram({1.0}, {2, 0});
  MetricsSnapshot delta = DiffSnapshots(older, newer);
  const HistogramSnapshot& h = delta.histograms.at("h");
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 0u);
  EXPECT_EQ(h.count, 2u);
}

// --- HistogramQuantile. ---

TEST(HistogramQuantileTest, EmptyHistogramIsZero) {
  HistogramSnapshot empty = MakeHistogram({1.0, 10.0}, {0, 0, 0});
  EXPECT_DOUBLE_EQ(HistogramQuantile(empty, 0.5), 0.0);
}

TEST(HistogramQuantileTest, QuantilesLandInTheRightBucket) {
  // 10 samples <= 100, 80 in (100, 1000], 10 in (1000, 10000].
  HistogramSnapshot h =
      MakeHistogram({100.0, 1000.0, 10000.0}, {10, 80, 10, 0});
  const double p50 = HistogramQuantile(h, 0.50);
  EXPECT_GT(p50, 100.0);
  EXPECT_LE(p50, 1000.0);
  const double p99 = HistogramQuantile(h, 0.99);
  EXPECT_GT(p99, 1000.0);
  EXPECT_LE(p99, 10000.0);
  // Quantiles are monotone in q.
  EXPECT_LE(HistogramQuantile(h, 0.10), p50);
  EXPECT_LE(p50, HistogramQuantile(h, 0.90));
}

TEST(HistogramQuantileTest, OverflowBucketReportsLastFiniteBound) {
  HistogramSnapshot h = MakeHistogram({100.0, 1000.0}, {0, 0, 50});
  // Every sample exceeded the last bound; the estimate is a floor.
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.5), 1000.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.99), 1000.0);
}

TEST(HistogramQuantileTest, SingleSampleIsInsideItsBucket) {
  HistogramSnapshot h = MakeHistogram({100.0, 1000.0}, {0, 1, 0});
  const double p50 = HistogramQuantile(h, 0.5);
  EXPECT_GT(p50, 100.0);
  EXPECT_LE(p50, 1000.0);
}

// --- SnapshotRing. ---

MetricsSnapshot CounterOnly(uint64_t requests) {
  MetricsSnapshot s;
  s.counters["requests"] = requests;
  return s;
}

TEST(SnapshotRingTest, EmptyRingIsInvalid) {
  SnapshotRing ring;
  EXPECT_FALSE(ring.Over(10.0).valid);
}

TEST(SnapshotRingTest, SingleSampleIsInvalid) {
  SnapshotRing ring;
  ring.Push(1.0, CounterOnly(10));
  SnapshotWindow window = ring.Over(10.0);
  EXPECT_FALSE(window.valid);
}

TEST(SnapshotRingTest, ZeroSpanIsInvalid) {
  SnapshotRing ring;
  ring.Push(1.0, CounterOnly(10));
  ring.Push(1.0, CounterOnly(20));  // Same timestamp: no span to rate.
  EXPECT_FALSE(ring.Over(10.0).valid);
}

TEST(SnapshotRingTest, TwoSamplesRateTheWindow) {
  SnapshotRing ring;
  ring.Push(1.0, CounterOnly(100));
  ring.Push(3.0, CounterOnly(160));
  SnapshotWindow window = ring.Over(10.0);
  ASSERT_TRUE(window.valid);
  EXPECT_DOUBLE_EQ(window.seconds, 2.0);
  EXPECT_EQ(window.delta.counter("requests"), 60u);
}

TEST(SnapshotRingTest, WindowSelectsOldestSampleInsideIt) {
  SnapshotRing ring;
  ring.Push(0.0, CounterOnly(0));    // 12s old: outside a 10s window.
  ring.Push(5.0, CounterOnly(50));   // 7s old: the window's far edge.
  ring.Push(10.0, CounterOnly(100));
  ring.Push(12.0, CounterOnly(120));
  SnapshotWindow window = ring.Over(10.0);
  ASSERT_TRUE(window.valid);
  EXPECT_DOUBLE_EQ(window.seconds, 7.0);
  EXPECT_EQ(window.delta.counter("requests"), 70u);
}

TEST(SnapshotRingTest, OutOfOrderPushIsIgnored) {
  SnapshotRing ring;
  ring.Push(5.0, CounterOnly(50));
  ring.Push(4.0, CounterOnly(9999));  // Stale: dropped.
  EXPECT_EQ(ring.size(), 1u);
  ring.Push(6.0, CounterOnly(60));
  SnapshotWindow window = ring.Over(10.0);
  ASSERT_TRUE(window.valid);
  EXPECT_EQ(window.delta.counter("requests"), 10u);
}

TEST(SnapshotRingTest, CapacityEvictsOldestSamples) {
  SnapshotRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.Push(static_cast<double>(i),
              CounterOnly(static_cast<uint64_t>(i) * 10));
  }
  EXPECT_EQ(ring.size(), 4u);
  // Only samples 6..9 remain; a huge window still spans just those.
  SnapshotWindow window = ring.Over(100.0);
  ASSERT_TRUE(window.valid);
  EXPECT_DOUBLE_EQ(window.seconds, 3.0);
  EXPECT_EQ(window.delta.counter("requests"), 30u);
}

}  // namespace
}  // namespace mergepurge
