// WindowScanner: the merge phase of the sorted-neighborhood method
// (paper §2.2, figure 1). "Move a fixed size window through the sequential
// list of records limiting the comparisons for matching records to those
// records in the window. If the size of the window is w records, then
// every new record entering the window is compared with the previous w-1
// records to find 'matching' records."

#ifndef MERGEPURGE_CORE_WINDOW_SCANNER_H_
#define MERGEPURGE_CORE_WINDOW_SCANNER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/pair_set.h"
#include "obs/progress.h"
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

// Adds `stats` to the global snm.* counters, once per completed scan or
// fragment. Kept out of the scan loop: the loop accumulates plain locals.
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

// The merge-phase loop of every scan in src/core/: the batch passes, the
// incremental insert, the probe and the merge-phase detector. Over
// positions [begin, end) of an order, each position i entering at
// [fresh, end) meets j in [max(begin, i - (window - 1)), i); the pair is
// compared only when keep(j, i) (and counted only then), and a match goes
// to emit(j, i). record_at(p) is the record at position p. Each chunk of
// kScanChunk entering positions loads its records, after the window-1
// before it, as the theory's rows, so a scan holds O(kScanChunk + window).
template <typename RecordAt, typename Keep, typename Emit>
ScanStats ScanWindows(size_t window, size_t begin, size_t fresh, size_t end,
                      const EquationalTheory& theory, RecordAt&& record_at,
                      Keep&& keep, Emit&& emit) {
  // Progress is reported in chunks so the hot loop sees only local
  // arithmetic between chunk boundaries.
  constexpr uint64_t kProgressChunk = 8192;
  ScanStats stats;
  if (window < 2 || begin >= end) return stats;
  std::vector<const Record*> rows;
  for (size_t chunk = std::max(fresh, begin + 1); chunk < end;
       chunk += WindowScanner::kScanChunk) {
    const size_t chunk_end = std::min(end, chunk + WindowScanner::kScanChunk);
    // Row r holds position first + r.
    const size_t first = chunk - begin >= window - 1 ? chunk - (window - 1)
                                                     : begin;
    rows.clear();
    for (size_t p = first; p < chunk_end; ++p) rows.push_back(&record_at(p));
    theory.LoadRows(rows.data(), rows.size());
    for (size_t i = chunk; i < chunk_end; ++i) {
      const size_t window_start =
          (i - begin >= window - 1) ? i - (window - 1) : begin;
      ++stats.windows;
      if ((stats.windows & (kProgressChunk - 1)) == 0) {
        ProgressReporter::Global().Advance(kProgressChunk);
      }
      for (size_t j = window_start; j < i; ++j) {
        if (!keep(j, i)) continue;
        ++stats.comparisons;
        if (theory.MatchesRows(j - first, i - first)) {
          ++stats.matches;
          emit(j, i);
        }
      }
    }
  }
  ProgressReporter::Global().Advance(stats.windows & (kProgressChunk - 1));
  return stats;
}

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_WINDOW_SCANNER_H_
