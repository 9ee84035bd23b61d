// The one pass executor of both methods' parallel forms (paper §4): every
// fragment of every pass's record order is one task on one worker pool,
// so a multi-pass run scans all of its passes together ("the independent
// runs ... on 3P processors") and the most expensive pass never leaves a
// core idle. A sorted-neighborhood pass contributes banded fragments of
// its sorted list (§4.1); a clustering pass contributes one unbanded
// fragment per cluster (§4.2). MultiPass::Run is the caller.

#ifndef MERGEPURGE_PARALLEL_FRAGMENT_SCAN_H_
#define MERGEPURGE_PARALLEL_FRAGMENT_SCAN_H_

#include <cstddef>
#include <vector>

#include "core/pair_set.h"
#include "core/window_scanner.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

// Half-open range [begin, end) of positions in the sorted order. `begin`
// already includes the replicated band from the previous fragment;
// `fresh` is the first position the fragment owns. Records in
// [begin, fresh) are window context only: the previous fragment has
// already compared them with each other. A clustering pass's fragment is
// one whole cluster, with no band (begin == fresh).
struct Fragment {
  size_t begin = 0;
  size_t fresh = 0;
  size_t end = 0;
};

// Splits n positions into at most p fragments of near-equal size, each
// extended backwards by w-1 replicated positions (except the first), so
// the fragmentation is invisible to the window scan (paper §4.1, figure
// 5): the per-fragment scans together make exactly the global scan's
// comparisons. Returns fewer than p fragments when n is too small to
// populate them.
std::vector<Fragment> MakeOverlappingFragments(size_t n, size_t p, size_t w);

// One record order (a pass's tuple ids) cut into fragments that together
// cover the positions to scan.
struct FragmentScanJob {
  const std::vector<TupleId>* order = nullptr;
  std::vector<Fragment> fragments;
};

// A job's committed work. `pairs` holds the fragments' matches as one
// sorted run; it stays empty unless every fragment of the job succeeded.
struct FragmentScanResult {
  PairSet pairs;
  ScanStats stats;
  double busy_seconds = 0.0;  // Summed scan time of the job's fragments.
  bool complete = false;
};

struct FragmentScanReport {
  std::vector<FragmentScanResult> jobs;  // One per job, in job order.
  // OK, or PartialFailure naming the fragments that failed.
  Status status;
};

// Scans every fragment of every job with `window` on a pool of `workers`
// threads (ParallelFor, util/thread_pool.h). Each fragment is one task
// that runs exactly once, with its own theory from `theory_factory`. A
// task that succeeds sorts its matches into a run and flushes its scan
// and rule metrics; one that throws stores the error in its slot and
// flushes nothing, so counters cover completed fragments only. A job is
// complete only when all of its fragments succeeded; after the scans, one
// task per complete job merges its runs into its pair set. A scan is a
// deterministic function of the dataset and the theory, so a failed
// fragment is not re-run: the call returns PartialFailure naming every
// failed fragment as job:begin-end, with the first error in task order,
// and MultiPass checkpoints the complete jobs' passes.
FragmentScanReport ScanFragments(const Dataset& dataset, size_t window,
                                 const std::vector<FragmentScanJob>& jobs,
                                 const TheoryFactory& theory_factory,
                                 size_t workers);

}  // namespace mergepurge

#endif  // MERGEPURGE_PARALLEL_FRAGMENT_SCAN_H_
