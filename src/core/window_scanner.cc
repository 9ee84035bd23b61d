#include "core/window_scanner.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/progress.h"

namespace mergepurge {

void FlushScanStats(const ScanStats& stats) {
  static Counter* const windows =
      MetricsRegistry::Global().GetCounter(metric_names::kSnmWindows);
  static Counter* const comparisons =
      MetricsRegistry::Global().GetCounter(metric_names::kSnmComparisons);
  static Counter* const matches =
      MetricsRegistry::Global().GetCounter(metric_names::kSnmMatches);
  windows->Add(stats.windows);
  comparisons->Add(stats.comparisons);
  matches->Add(stats.matches);
}

namespace {

// The scan loop shared by Scan and ScanRange; `emit(earlier, entering)`
// receives each matching pair.
template <typename Emit>
ScanStats ScanWindows(const Dataset& dataset,
                      const std::vector<TupleId>& order, size_t window,
                      size_t begin, size_t fresh, size_t end,
                      const EquationalTheory& theory, Emit&& emit) {
  // Progress is reported in chunks so the hot loop sees only local
  // arithmetic between chunk boundaries.
  constexpr uint64_t kProgressChunk = 8192;
  ProgressReporter& progress = ProgressReporter::Global();
  ScanStats stats;
  if (window < 2 || begin >= end) return stats;
  for (size_t i = std::max(fresh, begin + 1); i < end; ++i) {
    const TupleId entering = order[i];
    const Record& new_record = dataset.record(entering);
    const size_t window_start =
        (i - begin >= window - 1) ? i - (window - 1) : begin;
    ++stats.windows;
    if ((stats.windows & (kProgressChunk - 1)) == 0) {
      progress.Advance(kProgressChunk);
    }
    for (size_t j = window_start; j < i; ++j) {
      ++stats.comparisons;
      const TupleId other = order[j];
      if (theory.Matches(dataset.record(other), new_record)) {
        ++stats.matches;
        emit(other, entering);
      }
    }
  }
  progress.Advance(stats.windows & (kProgressChunk - 1));
  return stats;
}

}  // namespace

ScanStats WindowScanner::Scan(const Dataset& dataset,
                              const std::vector<TupleId>& order,
                              const EquationalTheory& theory,
                              PairSet* pairs) const {
  return ScanWindows(dataset, order, window_, 0, 0, order.size(), theory,
                     [pairs](TupleId a, TupleId b) { pairs->Add(a, b); });
}

ScanStats WindowScanner::ScanRange(
    const Dataset& dataset, const std::vector<TupleId>& order, size_t begin,
    size_t fresh, size_t end, const EquationalTheory& theory,
    std::vector<std::pair<TupleId, TupleId>>* matches) const {
  return ScanWindows(dataset, order, window_, begin, fresh, end, theory,
                     [matches](TupleId a, TupleId b) {
                       matches->emplace_back(a, b);
                     });
}

}  // namespace mergepurge
