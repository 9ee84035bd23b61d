// WindowScanner: the merge phase of the sorted-neighborhood method
// (paper §2.2, figure 1). "Move a fixed size window through the sequential
// list of records limiting the comparisons for matching records to those
// records in the window. If the size of the window is w records, then
// every new record entering the window is compared with the previous w-1
// records to find 'matching' records."

#ifndef MERGEPURGE_CORE_WINDOW_SCANNER_H_
#define MERGEPURGE_CORE_WINDOW_SCANNER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/pair_set.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"

namespace mergepurge {

struct ScanStats {
  uint64_t windows = 0;  // Window positions advanced (records entering).
  uint64_t comparisons = 0;
  uint64_t matches = 0;

  ScanStats& operator+=(const ScanStats& other) {
    windows += other.windows;
    comparisons += other.comparisons;
    matches += other.matches;
    return *this;
  }
};

// Adds `stats` to the global snm.* counters. Call once per completed
// scan (serial) or per successful fragment attempt (parallel) so retried
// executions are counted exactly once per committed unit of work. Kept
// out of the scan loop: the loop accumulates plain locals.
void FlushScanStats(const ScanStats& stats);

class WindowScanner {
 public:
  // Entering positions per theory block (EquationalTheory::LoadRows); a
  // block also holds the window-1 positions before them.
  static constexpr size_t kScanChunk = 1024;

  // window must be >= 2 (a window of 1 compares nothing).
  explicit WindowScanner(size_t window) : window_(window) {}

  size_t window() const { return window_; }

  // Scans `order` (tuple ids in sorted sequence) over `dataset`, applying
  // `theory` to each in-window pair; matching pairs are added to `pairs`.
  ScanStats Scan(const Dataset& dataset, const std::vector<TupleId>& order,
                 const EquationalTheory& theory, PairSet* pairs) const;

  // Scans the banded fragment [begin, end) of `order` whose own positions
  // start at `fresh` (begin <= fresh): each record entering at a position
  // in [fresh, end) is compared with the previous window-1 records, none
  // before `begin`. Records in [begin, fresh) are window context only, so
  // fragments that overlap by window-1 records make exactly the global
  // scan's comparisons between them (paper figure 5). Matching pairs are
  // appended to `matches` in scan order as (earlier, entering).
  ScanStats ScanRange(const Dataset& dataset,
                      const std::vector<TupleId>& order, size_t begin,
                      size_t fresh, size_t end,
                      const EquationalTheory& theory,
                      std::vector<std::pair<TupleId, TupleId>>* matches) const;

 private:
  size_t window_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_WINDOW_SCANNER_H_
