#include "parallel/parallel_snm.h"

#include "core/sorted_neighborhood.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/fragment_scan.h"
#include "util/timer.h"

namespace mergepurge {

ParallelSnm::ParallelSnm(size_t num_processors, size_t window,
                         size_t block_records, ResilientOptions resilience)
    : num_processors_(num_processors == 0 ? 1 : num_processors),
      window_(window),
      block_records_(block_records),
      resilience_(resilience) {
  resilience_.num_workers = num_processors_;
}

Result<ParallelRunResult> ParallelSnm::Run(
    const Dataset& dataset, const KeySpec& key,
    const TheoryFactory& theory_factory) const {
  if (window_ < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }
  KeyBuilder builder(key);
  MERGEPURGE_RETURN_NOT_OK(builder.Validate(dataset.schema()));

  static LatencyHistogram* const sort_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kSnmSortUs);
  static LatencyHistogram* const scan_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kSnmScanUs);
  static Counter* const passes_counter =
      MetricsRegistry::Global().GetCounter(metric_names::kSnmPasses);

  Span run_span("parallel-snm");
  run_span.AddArg("key", key.name);
  run_span.AddArg("processors", static_cast<uint64_t>(num_processors_));

  ParallelRunResult result;
  Timer total;

  // Sort phase. (Serial here; the paper's distributed sort-and-P-way-join
  // is modeled in the cost model — on one machine a shared sort is both
  // simpler and faster than simulating the exchange.)
  Timer phase;
  std::vector<TupleId> order;
  {
    Span span("sort");
    order = SortedNeighborhood::SortByKey(dataset, key);
  }
  result.sort_seconds = phase.ElapsedSeconds();
  sort_us->Record(static_cast<double>(phase.ElapsedMicros()));

  // Merge phase: banded fragments — either one large fragment per
  // processor, or the coordinator's block-cyclic deal — scanned as one
  // retryable task each.
  phase.Restart();
  FragmentScanJob job;
  job.order = &order;
  if (block_records_ > 0) {
    for (const std::vector<Fragment>& site :
         MakeBlockCyclicFragments(order.size(), num_processors_,
                                  block_records_, window_)) {
      job.fragments.insert(job.fragments.end(), site.begin(), site.end());
    }
  } else {
    job.fragments =
        MakeOverlappingFragments(order.size(), num_processors_, window_);
  }
  FragmentScanReport scan =
      ScanFragments(dataset, window_, {job}, theory_factory, resilience_);
  result.retries = scan.retries;
  result.speculations = scan.speculations;
  if (!scan.status.ok()) return scan.status;
  result.pairs = std::move(scan.jobs[0].pairs);
  result.comparisons = scan.jobs[0].stats.comparisons;
  result.matches = scan.jobs[0].stats.matches;
  result.worker_busy_seconds = std::move(scan.worker_busy_seconds);

  result.scan_seconds = phase.ElapsedSeconds();
  scan_us->Record(static_cast<double>(phase.ElapsedMicros()));
  passes_counter->Increment();
  result.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace mergepurge
