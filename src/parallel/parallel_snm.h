// Parallel sorted-neighborhood method (paper §4.1): sort, fragment the
// sorted list with w-1 replicated bands, and window-scan the fragments on
// worker threads (parallel/fragment_scan.h). Produces exactly the serial
// method's pair set and comparison count (the bands make the
// fragmentation invisible).

#ifndef MERGEPURGE_PARALLEL_PARALLEL_SNM_H_
#define MERGEPURGE_PARALLEL_PARALLEL_SNM_H_

#include <memory>
#include <vector>

#include "core/pair_set.h"
#include "keys/key_builder.h"
#include "parallel/resilient_runner.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

struct ParallelRunResult {
  PairSet pairs;
  uint64_t comparisons = 0;
  uint64_t matches = 0;
  double sort_seconds = 0.0;
  double cluster_seconds = 0.0;  // Clustering variant only.
  double scan_seconds = 0.0;     // Wall time of the parallel scan phase.
  double total_seconds = 0.0;
  // Per-worker busy time in the scan phase (for load-balance reporting).
  std::vector<double> worker_busy_seconds;
  // Fault-tolerance accounting (see ResilientRunner): re-attempts after
  // task failures and speculative straggler re-executions.
  uint64_t retries = 0;
  uint64_t speculations = 0;
};

class ParallelSnm {
 public:
  // num_processors worker threads; window as in the serial method.
  // block_records > 0 selects the paper's memory-bounded block-cyclic
  // distribution (§4.1: the coordinator streams blocks of M records,
  // overlapping by w-1, round-robin to the sites); 0 selects one large
  // banded fragment per processor. Both produce the serial pair set.
  // `resilience` tunes retry/backoff/deadline behaviour for lost or slow
  // fragment scans (num_workers is overridden with num_processors).
  ParallelSnm(size_t num_processors, size_t window, size_t block_records = 0,
              ResilientOptions resilience = ResilientOptions());

  // Runs the parallel pass. When fragment scans keep failing past the
  // retry budget, returns a PartialFailure status naming the unprocessed
  // fragments (no partial pair set is returned: a missing fragment would
  // silently corrupt the downstream closure).
  Result<ParallelRunResult> Run(const Dataset& dataset, const KeySpec& key,
                                const TheoryFactory& theory_factory) const;

 private:
  size_t num_processors_;
  size_t window_;
  size_t block_records_;
  ResilientOptions resilience_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_PARALLEL_PARALLEL_SNM_H_
