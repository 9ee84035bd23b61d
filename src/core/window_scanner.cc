#include "core/window_scanner.h"

#include "obs/metric_names.h"
#include "obs/metrics.h"

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

ScanStats WindowScanner::Scan(const Dataset& dataset,
                              const std::vector<TupleId>& order,
                              const EquationalTheory& theory,
                              PairSet* pairs) const {
  return ScanWindows(
      window_, 0, 0, order.size(), theory,
      [&](size_t p) -> const Record& { return dataset.record(order[p]); },
      [](size_t, size_t) { return true; },
      [&](size_t j, size_t i) { pairs->Add(order[j], order[i]); });
}

ScanStats WindowScanner::ScanRange(
    const Dataset& dataset, const std::vector<TupleId>& order, size_t begin,
    size_t fresh, size_t end, const EquationalTheory& theory,
    std::vector<std::pair<TupleId, TupleId>>* matches) const {
  return ScanWindows(
      window_, begin, fresh, end, theory,
      [&](size_t p) -> const Record& { return dataset.record(order[p]); },
      [](size_t, size_t) { return true; },
      [&](size_t j, size_t i) { matches->emplace_back(order[j], order[i]); });
}

}  // namespace mergepurge
