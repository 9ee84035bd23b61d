// SortMergeDetector: the alternative sorted-neighborhood algorithm the
// paper sketches in §2.2 — based on the duplicate-elimination idea of
// Bitton & DeWitt [3] and detailed in the companion TR [9]: "This
// duplicate elimination algorithm takes advantage of the fact that
// 'matching' records will come together during different phases of the
// Sort phase."
//
// Instead of sorting fully and then window-scanning, the detector runs a
// bottom-up merge sort over the keys and applies the equational theory
// after EVERY merge step: the batch scan's loop (ScanWindows,
// core/window_scanner.h) runs over the merged run and compares each
// record with the previous w-1 records that came from the OTHER input
// run (same-run pairs were already within w in an earlier merge and have
// been compared there).
//
// Properties (tested in tests/sort_merge_detector_test.cc):
//  * The detected pair set is a SUPERSET of the classic SNM pass with the
//    same window: two records within w of each other in the final order
//    were within w when their runs first merged. The converse fails —
//    records adjacent mid-sort can drift apart later — so the detector
//    catches matches the final window scan misses.
//  * The price is more comparisons: up to ~w*N per merge level instead of
//    w*N once. The ablation bench quantifies the recall/cost tradeoff.

#ifndef MERGEPURGE_CORE_SORT_MERGE_DETECTOR_H_
#define MERGEPURGE_CORE_SORT_MERGE_DETECTOR_H_

#include "core/sorted_neighborhood.h"
#include "keys/key_builder.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

class SortMergeDetector {
 public:
  explicit SortMergeDetector(size_t window) : window_(window) {}

  size_t window() const { return window_; }

  // Runs the merge-sort-with-detection pass. window >= 2 required.
  Result<PassResult> Run(const Dataset& dataset, const KeySpec& key,
                         const EquationalTheory& theory) const;

 private:
  size_t window_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_SORT_MERGE_DETECTOR_H_
