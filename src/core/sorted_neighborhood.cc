#include "core/sorted_neighborhood.h"

#include <algorithm>
#include <numeric>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace mergepurge {

namespace {

std::vector<TupleId> OrderByKeys(const std::vector<std::string>& keys) {
  std::vector<TupleId> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&keys](TupleId a, TupleId b) {
    int cmp = keys[a].compare(keys[b]);
    if (cmp != 0) return cmp < 0;
    return a < b;
  });
  return order;
}

}  // namespace

std::vector<TupleId> SortedNeighborhood::SortByKey(const Dataset& dataset,
                                                   const KeySpec& key) {
  return OrderByKeys(KeyBuilder(key).BuildKeys(dataset));
}

std::vector<TupleId> SortedNeighborhood::KeyAndSort(const Dataset& dataset,
                                                    const KeySpec& key,
                                                    PassResult* pass) {
  static LatencyHistogram* const sort_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kSnmSortUs);
  Timer phase;
  std::vector<std::string> keys;
  {
    Span span("create-keys");
    keys = KeyBuilder(key).BuildKeys(dataset);
  }
  pass->create_keys_seconds = phase.ElapsedSeconds();

  phase.Restart();
  std::vector<TupleId> order;
  {
    Span span("sort");
    order = OrderByKeys(keys);
  }
  pass->sort_seconds = phase.ElapsedSeconds();
  sort_us->Record(static_cast<double>(phase.ElapsedMicros()));
  return order;
}

Result<PassResult> SortedNeighborhood::Run(
    const Dataset& dataset, const KeySpec& key,
    const EquationalTheory& theory) const {
  if (window_ < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }
  MERGEPURGE_RETURN_NOT_OK(KeyBuilder(key).Validate(dataset.schema()));

  static Counter* const passes_counter =
      MetricsRegistry::Global().GetCounter(metric_names::kSnmPasses);
  static LatencyHistogram* const scan_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kSnmScanUs);

  Span pass_span("snm-pass");
  pass_span.AddArg("key", key.name);

  PassResult result;
  result.key_name = key.name;
  Timer total;
  std::vector<TupleId> order = KeyAndSort(dataset, key, &result);

  // Phase 3: window scan (merge).
  Timer phase;
  ScanStats stats;
  {
    Span span("window-scan");
    WindowScanner scanner(window_);
    stats = scanner.Scan(dataset, order, theory, &result.pairs);
    span.AddArg("windows", stats.windows);
    span.AddArg("comparisons", stats.comparisons);
  }
  result.scan_seconds = phase.ElapsedSeconds();
  scan_us->Record(static_cast<double>(phase.ElapsedMicros()));

  FlushScanStats(stats);
  theory.FlushMetrics();
  passes_counter->Increment();

  result.windows = stats.windows;
  result.comparisons = stats.comparisons;
  result.matches = stats.matches;
  result.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace mergepurge
