#include "core/sorted_neighborhood.h"

#include "core/key_order.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mergepurge {

std::vector<TupleId> SortedNeighborhood::SortByKey(const Dataset& dataset,
                                                   const KeySpec& key) {
  const size_t workers = AvailableCpus();
  return OrderByKeyRanges(KeyBuilder(key).BuildKeys(dataset),
                          workers * kBucketsPerWorker, workers)
      .order;
}

std::vector<TupleId> SortedNeighborhood::KeyAndSort(const Dataset& dataset,
                                                    const KeySpec& key,
                                                    PassResult* pass) {
  static LatencyHistogram* const sort_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kSnmSortUs);
  std::vector<std::string> keys;
  {
    Span span("create-keys");
    pass->create_keys_seconds = 0.0;
    keys = KeyBuilder(key).BuildKeys(dataset, &pass->create_keys_seconds);
  }
  KeyOrder sorted;
  {
    Span span("sort");
    const size_t workers = AvailableCpus();
    sorted = OrderByKeyRanges(keys, workers * kBucketsPerWorker, workers);
  }
  pass->sort_seconds = sorted.busy_seconds;
  sort_us->Record(sorted.busy_seconds * 1e6);
  return std::move(sorted.order);
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
