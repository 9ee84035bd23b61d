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
// receives each matching pair. The entering positions are taken in
// chunks of kScanChunk: each chunk loads its records, after the window-1
// before it, as the theory's rows, so the rows a scan holds stay
// O(kScanChunk + window) whatever the fragment's length.
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
  std::vector<const Record*> rows;
  for (size_t chunk = std::max(fresh, begin + 1); chunk < end;
       chunk += WindowScanner::kScanChunk) {
    const size_t chunk_end = std::min(end, chunk + WindowScanner::kScanChunk);
    // Row r holds position first + r.
    const size_t first = chunk - begin >= window - 1 ? chunk - (window - 1)
                                                     : begin;
    rows.clear();
    for (size_t p = first; p < chunk_end; ++p) {
      rows.push_back(&dataset.record(order[p]));
    }
    theory.LoadRows(rows.data(), rows.size());
    for (size_t i = chunk; i < chunk_end; ++i) {
      const size_t window_start =
          (i - begin >= window - 1) ? i - (window - 1) : begin;
      ++stats.windows;
      if ((stats.windows & (kProgressChunk - 1)) == 0) {
        progress.Advance(kProgressChunk);
      }
      for (size_t j = window_start; j < i; ++j) {
        ++stats.comparisons;
        if (theory.MatchesRows(j - first, i - first)) {
          ++stats.matches;
          emit(order[j], order[i]);
        }
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
