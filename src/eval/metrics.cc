#include "eval/metrics.h"

#include <algorithm>

#include "core/multipass.h"

namespace mergepurge {

AccuracyReport EvaluateComponents(const std::vector<uint32_t>& component_of,
                                  const GroundTruth& truth) {
  AccuracyReport report;
  report.true_pairs = truth.NumTruePairs();

  // Sort (component, origin) so each component is a contiguous run and
  // each (component, origin) subgroup is contiguous within it.
  std::vector<std::pair<uint32_t, uint32_t>> labels;
  labels.reserve(component_of.size());
  for (size_t t = 0; t < component_of.size(); ++t) {
    labels.emplace_back(component_of[t],
                        truth.origin_of(static_cast<TupleId>(t)));
  }
  std::sort(labels.begin(), labels.end());

  auto pairs_of = [](uint64_t k) { return k * (k - 1) / 2; };

  size_t i = 0;
  while (i < labels.size()) {
    size_t component_end = i;
    while (component_end < labels.size() &&
           labels[component_end].first == labels[i].first) {
      ++component_end;
    }
    report.found_pairs += pairs_of(component_end - i);
    size_t j = i;
    while (j < component_end) {
      size_t group_end = j;
      while (group_end < component_end &&
             labels[group_end].second == labels[j].second) {
        ++group_end;
      }
      report.true_positives += pairs_of(group_end - j);
      j = group_end;
    }
    i = component_end;
  }

  report.false_positives = report.found_pairs - report.true_positives;
  if (report.true_pairs > 0) {
    report.recall_percent =
        100.0 * static_cast<double>(report.true_positives) /
        static_cast<double>(report.true_pairs);
    report.false_positive_percent =
        100.0 * static_cast<double>(report.false_positives) /
        static_cast<double>(report.true_pairs);
  }
  if (report.found_pairs > 0) {
    report.precision_percent =
        100.0 * static_cast<double>(report.true_positives) /
        static_cast<double>(report.found_pairs);
  }
  return report;
}

AccuracyReport EvaluatePairSet(const PairSet& pairs, size_t n,
                               const GroundTruth& truth) {
  return EvaluateComponents(TransitiveClosure({&pairs}, n), truth);
}

}  // namespace mergepurge
