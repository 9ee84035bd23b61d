#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mergepurge {

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Stripe& stripe : stripes_) {
    stripe.value.store(0, std::memory_order_relaxed);
  }
}

void Gauge::Add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

LatencyHistogram::LatencyHistogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)),
      bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1) {
  assert(!bounds_.empty() && "histogram needs at least one bound");
  assert(std::is_sorted(bounds_.begin(), bounds_.end()) &&
         "histogram bounds must be increasing");
}

void LatencyHistogram::Record(double value) {
  // First bucket whose upper bound admits the value; past-the-end is the
  // overflow bucket.
  size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.counts.reserve(buckets_.size());
  for (const std::atomic<uint64_t>& bucket : buckets_) {
    snapshot.counts.push_back(bucket.load(std::memory_order_relaxed));
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  return snapshot;
}

void LatencyHistogram::Reset() {
  for (std::atomic<uint64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> LatencyHistogram::ExponentialBounds(double start, double factor,
                                                 size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> LatencyHistogram::LatencyBounds() {
  // 10^(i/10) for i = 0..70: 1 µs .. 1e7 µs (10 s), ten buckets per
  // decade. Values are computed once per registration, so the pow calls
  // never touch a hot path.
  std::vector<double> bounds;
  bounds.reserve(71);
  for (int i = 0; i <= 70; ++i) {
    bounds.push_back(std::pow(10.0, i / 10.0));
  }
  return bounds;
}

double HistogramQuantile(const HistogramSnapshot& histogram, double q) {
  if (histogram.count == 0 || histogram.counts.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(histogram.count);
  double cumulative = 0.0;
  for (size_t i = 0; i < histogram.counts.size(); ++i) {
    double in_bucket = static_cast<double>(histogram.counts[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket < target) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= histogram.bounds.size()) {
      // Overflow bucket: unbounded above, report the last finite bound.
      return histogram.bounds.back();
    }
    double lower = i == 0 ? 0.0 : histogram.bounds[i - 1];
    double upper = histogram.bounds[i];
    double fraction =
        std::clamp((target - cumulative) / in_bucket, 0.0, 1.0);
    if (lower > 0.0 && upper > lower) {
      // Geometric interpolation matches the log-spaced bucket scale.
      return lower * std::pow(upper / lower, fraction);
    }
    return lower + fraction * (upper - lower);
  }
  return histogram.bounds.back();
}

uint64_t MetricsSnapshot::counter(std::string_view name) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

JsonValue MetricsSnapshot::ToJson() const {
  JsonValue out = JsonValue::Object();

  JsonValue counters_json = JsonValue::Object();
  for (const auto& [name, value] : counters) {
    counters_json.Set(name, JsonValue(value));
  }
  out.Set("counters", std::move(counters_json));

  JsonValue gauges_json = JsonValue::Object();
  for (const auto& [name, value] : gauges) {
    gauges_json.Set(name, JsonValue(value));
  }
  out.Set("gauges", std::move(gauges_json));

  JsonValue histograms_json = JsonValue::Object();
  for (const auto& [name, histogram] : histograms) {
    JsonValue h = JsonValue::Object();
    h.Set("count", JsonValue(histogram.count));
    h.Set("sum", JsonValue(histogram.sum));
    h.Set("p50", JsonValue(HistogramQuantile(histogram, 0.50)));
    h.Set("p90", JsonValue(HistogramQuantile(histogram, 0.90)));
    h.Set("p99", JsonValue(HistogramQuantile(histogram, 0.99)));
    histograms_json.Set(name, std::move(h));
  }
  out.Set("histograms", std::move(histograms_json));
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked intentionally: instrumentation may run during static
  // destruction of other objects.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<Gauge>(std::string(name)))
             .first;
  }
  return it->second.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = LatencyHistogram::LatencyBounds();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<LatencyHistogram>(std::string(name),
                                                  std::move(bounds)))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->Snapshot();
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace mergepurge
