// MetricsRegistry: named counters, gauges and fixed-bucket histograms for
// the merge/purge pipeline. Design goals, in order:
//
//   1. Hot paths stay hot. Counter::Add is one relaxed atomic increment on
//      a cacheline-private stripe selected by the calling thread's dense
//      ordinal — no locks, no shared contended line. Library code that is
//      hotter still (the window scan's per-pair loop) accumulates in plain
//      locals and flushes one Add per batch.
//   2. Names are stable, dot-delimited, and catalogued in
//      obs/metric_names.h (documented in docs/observability.md). A metric,
//      once registered, lives for the process: handles returned by the
//      registry never dangle, so call sites cache them in static locals.
//   3. Snapshots are exact. Snapshot() sums every stripe; with all writer
//      threads quiescent the result equals the arithmetic sum of all Adds
//      (verified under contention by tests/obs_metrics_test.cc).
//
// With no sink requested nothing is ever serialized; the registry is then
// just a few idle cache lines.

#ifndef MERGEPURGE_OBS_METRICS_H_
#define MERGEPURGE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "util/sync.h"
#include "util/thread_id.h"

namespace mergepurge {

// Stripes per counter. Threads hash onto stripes by dense ordinal, so up
// to this many threads increment without sharing a cache line. More
// stripes than the thread pools this project spawns would be dead memory.
inline constexpr size_t kCounterStripes = 16;

// A monotonically increasing sum. Thread-safe; Add is wait-free.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) {
    stripes_[CurrentThreadOrdinal() % kCounterStripes].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  // Exact when writers are quiescent; otherwise a consistent lower bound
  // of the increments that happened-before the call.
  uint64_t Value() const;

  void Reset();

  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };

  std::string name_;
  std::array<Stripe, kCounterStripes> stripes_;
};

// A last-write-wins instantaneous value (e.g. configured worker count).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot {
  // Upper bounds of the finite buckets; bucket i counts values
  // v <= bounds[i] (and > bounds[i-1]). counts has bounds.size() + 1
  // entries; the last is the overflow bucket (> bounds.back()).
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0.0;
};

// Quantile estimate from bucket counts, q in [0, 1]. Interpolates
// within the selected bucket — geometrically when the bucket's bounds
// are positive (matching the log-spaced LatencyBounds scale), linearly
// otherwise. The overflow bucket has no upper bound, so a rank landing
// there reports the last finite bound (a floor, not an estimate).
// Returns 0 for an empty histogram.
double HistogramQuantile(const HistogramSnapshot& histogram, double q);

// A fixed-bucket histogram (bounds immutable after construction, so
// Record never allocates or locks).
class LatencyHistogram {
 public:
  // `bounds` must be strictly increasing and non-empty.
  LatencyHistogram(std::string name, std::vector<double> bounds);

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(double value);

  HistogramSnapshot Snapshot() const;
  void Reset();

  const std::string& name() const { return name_; }
  const std::vector<double>& bounds() const { return bounds_; }

  // `count` buckets growing geometrically from `start` by `factor`:
  // {start, start*factor, ...}. Used for count-scaled histograms (batch
  // sizes); the *_us histograms default to LatencyBounds() instead.
  static std::vector<double> ExponentialBounds(double start = 1.0,
                                               double factor = 4.0,
                                               size_t count = 20);

  // The default latency scale: log-spaced from 1 µs to 10 s, ten buckets
  // per decade (bounds 10^(i/10) µs, i = 0..70; ratio ≈1.26 between
  // neighbors). Fine enough that a sub-millisecond upsert path resolves
  // into distinct buckets and interpolated quantiles stay within a few
  // percent of the exact value, instead of the old x4 scale that
  // quantized everything under 1 ms into one or two buckets.
  static std::vector<double> LatencyBounds();

 private:
  std::string name_;
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// A point-in-time copy of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // Value of a counter, 0 when absent. A snapshot lists only the metrics
  // registered by code that ran, so absent reads as zero.
  uint64_t counter(std::string_view name) const;

  // {"counters": {...}, "gauges": {...}, "histograms": {...}}, each
  // histogram as {count, sum, p50, p90, p99} (HistogramQuantile). The one
  // serializer of a snapshot: run reports and the stats reply use it.
  JsonValue ToJson() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry all library instrumentation writes to.
  static MetricsRegistry& Global();

  // Returns the metric named `name`, creating it on first use. Pointers
  // are stable for the registry's lifetime — cache them at call sites:
  //   static Counter* const c = MetricsRegistry::Global().GetCounter(...);
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);

  // First registration fixes the bucket bounds; later calls return the
  // existing histogram regardless of `bounds`. Empty bounds select
  // LatencyHistogram::LatencyBounds().
  LatencyHistogram* GetHistogram(std::string_view name,
                          std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;

  // Zeroes every value but keeps all registrations (cached handles stay
  // valid). Used between runs sharing a process (tests, benches).
  void Reset();

 private:
  // mu_ guards only the registration maps; metric values themselves are
  // atomics, so handles returned by Get* are written without the lock.
  mutable Mutex mu_{lockrank::kMetricsRegistry};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      MERGEPURGE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      MERGEPURGE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_ MERGEPURGE_GUARDED_BY(mu_);
};

}  // namespace mergepurge

#endif  // MERGEPURGE_OBS_METRICS_H_
