#include "core/sort_merge_detector.h"

#include <cstdint>
#include <string>
#include <vector>

#include "core/key_order.h"
#include "core/window_scanner.h"
#include "util/timer.h"

namespace mergepurge {

namespace {

// One merge step: merges `left` and `right` (each in KeyTidLess order)
// into `out`, then scans `out` with the window, comparing each record
// with the previous window-1 records that came from the other input run
// and appending each match to `matches` as a PackMatch word.
void MergeAndDetect(const Dataset& dataset,
                    const std::vector<std::string>& keys,
                    const std::vector<TupleId>& left,
                    const std::vector<TupleId>& right, size_t window,
                    const EquationalTheory& theory, PassResult* result,
                    std::vector<uint64_t>* matches,
                    std::vector<TupleId>* out) {
  out->clear();
  out->reserve(left.size() + right.size());
  std::vector<uint8_t> from_left;
  from_left.reserve(left.size() + right.size());
  size_t i = 0;
  size_t j = 0;
  while (i < left.size() || j < right.size()) {
    const bool take_left =
        j == right.size() ||
        (i < left.size() &&
         KeyTidLess(keys[left[i]], left[i], keys[right[j]], right[j]));
    from_left.push_back(take_left);
    out->push_back(take_left ? left[i++] : right[j++]);
  }
  const std::vector<TupleId>& merged = *out;
  const ScanStats stats = ScanWindows(
      window, 0, 0, merged.size(), theory,
      [&](size_t p) -> const Record& { return dataset.record(merged[p]); },
      // Same-run pairs were within the window of an earlier merge.
      [&](size_t a, size_t b) { return from_left[a] != from_left[b]; },
      [&](size_t a, size_t b) {
        matches->push_back(PackMatch(merged[a], merged[b]));
      });
  result->comparisons += stats.comparisons;
  result->matches += stats.matches;
}

}  // namespace

Result<PassResult> SortMergeDetector::Run(
    const Dataset& dataset, const KeySpec& key,
    const EquationalTheory& theory) const {
  if (window_ < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }
  KeyBuilder builder(key);
  MERGEPURGE_RETURN_NOT_OK(builder.Validate(dataset.schema()));

  PassResult result;
  result.key_name = key.name + "+merge-detect";
  Timer total;

  Timer phase;
  std::vector<std::string> keys = builder.BuildKeys(dataset);
  result.create_keys_seconds = phase.ElapsedSeconds();

  // Bottom-up merge sort from singleton runs; each merge is followed by
  // its detection scan, so there is no separate window-scan phase.
  phase.Restart();
  std::vector<std::vector<TupleId>> runs(dataset.size());
  for (size_t t = 0; t < dataset.size(); ++t) {
    runs[t] = {static_cast<TupleId>(t)};
  }
  std::vector<TupleId> merged;
  std::vector<uint64_t> matches;
  while (runs.size() > 1) {
    std::vector<std::vector<TupleId>> next;
    next.reserve((runs.size() + 1) / 2);
    for (size_t r = 0; r + 1 < runs.size(); r += 2) {
      MergeAndDetect(dataset, keys, runs[r], runs[r + 1], window_, theory,
                     &result, &matches, &merged);
      next.push_back(std::move(merged));
    }
    if (runs.size() % 2 == 1) next.push_back(std::move(runs.back()));
    runs = std::move(next);
  }
  result.pairs = PairSet(std::move(matches));
  result.sort_seconds = phase.ElapsedSeconds();
  result.scan_seconds = 0.0;  // Folded into the merge phases.
  result.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace mergepurge
