// Windowed-rate support for live introspection: diff two metric
// snapshots, and keep a small ring of timestamped snapshots so a live
// service can answer "what happened over the last 10 seconds" instead of
// only "since boot".
//
// The ring is fed opportunistically (the server pushes a snapshot on
// every stats request, the loadgen on every progress tick), so windows
// are approximate by design: Over(w) diffs the newest sample against the
// oldest sample still inside the window and reports the actual span
// covered. Counter resets (a test calling MetricsRegistry::Reset, a
// restarted process feeding the same ring) are detected per metric and
// degrade to the newer absolute value rather than an absurd negative
// rate.

#ifndef MERGEPURGE_OBS_WINDOW_H_
#define MERGEPURGE_OBS_WINDOW_H_

#include <cstddef>
#include <deque>

#include "obs/metrics.h"
#include "util/sync.h"

namespace mergepurge {

// newer - older, per metric. Counters subtract; a counter that went
// backwards (reset between the two snapshots) contributes its newer
// value, as if the older snapshot were zero. Gauges are instantaneous,
// so the newer value passes through unchanged. Histograms diff
// bucketwise when the bounds match and no bucket went backwards;
// otherwise (re-registration with different bounds, or a reset) the
// newer histogram passes through whole. Metrics present only in `newer`
// pass through; metrics present only in `older` are dropped.
MetricsSnapshot DiffSnapshots(const MetricsSnapshot& older,
                              const MetricsSnapshot& newer);

// The result of SnapshotRing::Over: the change across the window and
// the wall-clock span it actually covers. `valid` is false until the
// ring holds two samples a nonzero interval apart, so callers divide by
// `seconds` only when there is a real window to rate over.
struct SnapshotWindow {
  bool valid = false;
  double seconds = 0.0;
  MetricsSnapshot delta;
};

// A bounded ring of timestamped metric snapshots. Thread-safe; Push and
// Over take an internal lock, which is fine because both run on the
// stats/admin path, never on a request hot path.
class SnapshotRing {
 public:
  explicit SnapshotRing(size_t capacity = 16);

  // Appends a sample. `at_seconds` must be monotonic (steady-clock
  // seconds); a sample older than the newest already held is ignored.
  // When full, the oldest sample is dropped.
  void Push(double at_seconds, MetricsSnapshot snapshot);

  // Diffs the newest sample against the oldest sample at most
  // `window_seconds` older than it.
  SnapshotWindow Over(double window_seconds) const;

  size_t size() const;

 private:
  struct Sample {
    double at_seconds;
    MetricsSnapshot snapshot;
  };

  const size_t capacity_;
  mutable Mutex mu_{lockrank::kSnapshotRing};
  std::deque<Sample> samples_ MERGEPURGE_GUARDED_BY(mu_);
};

}  // namespace mergepurge

#endif  // MERGEPURGE_OBS_WINDOW_H_
