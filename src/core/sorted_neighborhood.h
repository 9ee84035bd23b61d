// SortedNeighborhood: one pass of the sorted-neighborhood method
// (paper §2.2): create keys -> sort -> window scan.

#ifndef MERGEPURGE_CORE_SORTED_NEIGHBORHOOD_H_
#define MERGEPURGE_CORE_SORTED_NEIGHBORHOOD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pair_set.h"
#include "core/window_scanner.h"
#include "keys/key_builder.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

// The outcome and phase timings of one merge pass (either method).
struct PassResult {
  std::string key_name;
  PairSet pairs;
  uint64_t windows = 0;  // Window positions scanned.
  uint64_t comparisons = 0;
  uint64_t matches = 0;
  // The phase times below are summed task time, not wall time: key
  // builds, sorts and MultiPass's fragment scans run on worker threads,
  // and their sum is the pass's cost on one CPU.
  double create_keys_seconds = 0.0;
  double sort_seconds = 0.0;   // SNM: full sort; clustering: per-cluster sorts.
  double cluster_seconds = 0.0;  // Clustering method only.
  double scan_seconds = 0.0;
  double total_seconds = 0.0;  // The phases above, summed.
  // True when the pass was loaded from a checkpoint instead of computed
  // (comparison/timing counters are then zero — the work never ran).
  bool resumed = false;
};

class SortedNeighborhood {
 public:
  explicit SortedNeighborhood(size_t window) : window_(window) {}

  size_t window() const { return window_; }

  // Runs one full pass with `key` over `dataset`. window >= 2 required.
  Result<PassResult> Run(const Dataset& dataset, const KeySpec& key,
                         const EquationalTheory& theory) const;

  // Sorts tuple ids of `dataset` by the key (ties broken by tuple id for
  // determinism), building the keys and sorting their range-partitioned
  // buckets on the pool (core/key_order.h).
  static std::vector<TupleId> SortByKey(const Dataset& dataset,
                                        const KeySpec& key);

  // Phases 1-2 of a pass: SortByKey with the create-keys and sort phases
  // timed into `pass`, as summed task time, and traced. The key must be
  // valid for the dataset's schema.
  static std::vector<TupleId> KeyAndSort(const Dataset& dataset,
                                         const KeySpec& key,
                                         PassResult* pass);

 private:
  size_t window_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_SORTED_NEIGHBORHOOD_H_
