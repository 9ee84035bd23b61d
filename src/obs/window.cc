#include "obs/window.h"

#include <algorithm>
#include <utility>

namespace mergepurge {

namespace {

// Bucketwise histogram diff; falls back to `newer` whole when the two
// snapshots are not diffable (bounds changed, or a bucket went
// backwards — both mean a reset happened in between).
HistogramSnapshot DiffHistograms(const HistogramSnapshot& older,
                                 const HistogramSnapshot& newer) {
  if (older.bounds != newer.bounds ||
      older.counts.size() != newer.counts.size() ||
      older.count > newer.count) {
    return newer;
  }
  HistogramSnapshot diff;
  diff.bounds = newer.bounds;
  diff.counts.reserve(newer.counts.size());
  for (size_t i = 0; i < newer.counts.size(); ++i) {
    if (older.counts[i] > newer.counts[i]) return newer;
    diff.counts.push_back(newer.counts[i] - older.counts[i]);
  }
  diff.count = newer.count - older.count;
  // Sums are accumulated doubles; clamp the tiny negative a concurrent
  // reader can observe between the bucket and sum updates.
  diff.sum = std::max(0.0, newer.sum - older.sum);
  return diff;
}

}  // namespace

MetricsSnapshot DiffSnapshots(const MetricsSnapshot& older,
                              const MetricsSnapshot& newer) {
  MetricsSnapshot diff;
  for (const auto& [name, value] : newer.counters) {
    auto it = older.counters.find(name);
    uint64_t before = it == older.counters.end() ? 0 : it->second;
    diff.counters[name] = before > value ? value : value - before;
  }
  diff.gauges = newer.gauges;
  for (const auto& [name, histogram] : newer.histograms) {
    auto it = older.histograms.find(name);
    diff.histograms[name] = it == older.histograms.end()
                                ? histogram
                                : DiffHistograms(it->second, histogram);
  }
  return diff;
}

SnapshotRing::SnapshotRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void SnapshotRing::Push(double at_seconds, MetricsSnapshot snapshot) {
  MutexLock lock(mu_);
  if (!samples_.empty() && at_seconds < samples_.back().at_seconds) return;
  samples_.push_back(Sample{at_seconds, std::move(snapshot)});
  while (samples_.size() > capacity_) samples_.pop_front();
}

SnapshotWindow SnapshotRing::Over(double window_seconds) const {
  MutexLock lock(mu_);
  SnapshotWindow window;
  if (samples_.size() < 2) return window;
  const Sample& newest = samples_.back();
  // Oldest sample still inside the window; there is always at least one
  // candidate (the sample just before newest) when spans are short.
  const Sample* oldest = nullptr;
  for (const Sample& sample : samples_) {
    if (newest.at_seconds - sample.at_seconds <= window_seconds) {
      oldest = &sample;
      break;
    }
  }
  if (oldest == nullptr || oldest == &newest) return window;
  window.seconds = newest.at_seconds - oldest->at_seconds;
  if (window.seconds <= 0.0) return window;
  window.valid = true;
  window.delta = DiffSnapshots(oldest->snapshot, newest.snapshot);
  return window;
}

size_t SnapshotRing::size() const {
  MutexLock lock(mu_);
  return samples_.size();
}

}  // namespace mergepurge
