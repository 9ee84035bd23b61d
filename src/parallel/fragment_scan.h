// The one fragment-scan path of the parallel sorted-neighborhood method
// (paper §4.1): every banded fragment of every sorted order is one task of
// one ResilientRunner, so a multi-pass run scans all of its passes on one
// worker pool ("the independent runs ... on 3P processors") and the most
// expensive pass never leaves a core idle. ParallelSnm (one key) and
// MultiPass (every key) both scan through ScanFragments.

#ifndef MERGEPURGE_PARALLEL_FRAGMENT_SCAN_H_
#define MERGEPURGE_PARALLEL_FRAGMENT_SCAN_H_

#include <cstdint>
#include <vector>

#include "core/pair_set.h"
#include "core/window_scanner.h"
#include "parallel/coordinator.h"
#include "parallel/resilient_runner.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

// One sorted order (a pass's tuple ids in key order) cut into banded
// fragments that together cover it.
struct FragmentScanJob {
  const std::vector<TupleId>* order = nullptr;
  std::vector<Fragment> fragments;
};

// A job's committed work. `pairs` holds the fragments' matches inserted in
// fragment order, which is the serial scan's order; it stays empty unless
// every fragment of the job committed.
struct FragmentScanResult {
  PairSet pairs;
  ScanStats stats;
  double busy_seconds = 0.0;  // Summed scan time of the job's fragments.
  bool complete = false;
};

struct FragmentScanReport {
  std::vector<FragmentScanResult> jobs;  // One per job, in job order.
  // Scan time per virtual worker (for load-balance reporting).
  std::vector<double> worker_busy_seconds;
  uint64_t retries = 0;
  uint64_t speculations = 0;
  // OK, or the runner's PartialFailure naming the unprocessed tasks.
  Status status;
};

// Scans every fragment of every job with `window`, each attempt with its
// own theory from `theory_factory`, on resilience.num_workers threads.
// Each task checks the parallel.fragment_scan fault point, buffers its
// matches, and on commit flushes its scan and rule metrics, so retried or
// speculative attempts count once. The pair sets are built on the calling
// thread after the pool drains.
FragmentScanReport ScanFragments(const Dataset& dataset, size_t window,
                                 const std::vector<FragmentScanJob>& jobs,
                                 const TheoryFactory& theory_factory,
                                 const ResilientOptions& resilience);

}  // namespace mergepurge

#endif  // MERGEPURGE_PARALLEL_FRAGMENT_SCAN_H_
