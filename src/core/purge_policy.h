// PurgePolicy: the purge phase's merge semantics (paper §5): "The
// consequent of the rules can be programmed to specify selective
// extraction, purging, and even deduction of information, i.e.
// 'data-directed' projections, selections and deductions can be specified
// in the rule sets when matching records are found."
//
// A policy assigns each field a merge strategy applied across the records
// of one equivalence class:
//   kLongest       longest non-empty value (completeness; the default)
//   kMostFrequent  modal value (majority vote repairs typos)
//   kFirstSeen     value of the lowest tuple id (stable provenance)
//   kNonEmptyFirst first non-empty value in tuple-id order
//   kConcatDistinct all distinct non-empty values joined with " / "
//                  (deduction-style retention of alternates, e.g. aliases)
//
// Policies can be written in the rule language alongside match rules:
//
//   merge first_name: prefer most_frequent
//   merge last_name: prefer concat_distinct
//
// (RuleProgram::purge_policy(); rules/theory_loader.h hands it to tools).

#ifndef MERGEPURGE_CORE_PURGE_POLICY_H_
#define MERGEPURGE_CORE_PURGE_POLICY_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "record/dataset.h"
#include "util/status.h"

namespace mergepurge {

enum class MergeStrategy {
  kLongest,
  kMostFrequent,
  kFirstSeen,
  kNonEmptyFirst,
  kConcatDistinct,
};

// Parses a strategy name ("longest", "most_frequent", "first_seen",
// "non_empty_first", "concat_distinct").
Result<MergeStrategy> MergeStrategyFromName(std::string_view name);

class PurgePolicy {
 public:
  // Every field defaults to kLongest.
  PurgePolicy() = default;

  // Sets the strategy for one field.
  void Set(FieldId field, MergeStrategy strategy);

  MergeStrategy strategy_for(FieldId field) const;

  // Merges the records of one equivalence class (tuple ids into `dataset`,
  // in ascending order) into a single record.
  Record MergeClass(const Dataset& dataset,
                    std::span<const TupleId> members) const;

  // Purges a whole dataset given one component label per tuple, each a
  // tuple id of the dataset (TransitiveClosure's smallest member): one
  // merged record per class, classes ordered by first appearance. The
  // classes are grouped by a counting pass into one member array, then
  // merged range by range on a pool of AvailableCpus() threads. Other
  // labels, or a label count other than the dataset's size, are an
  // InvalidArgument.
  Result<Dataset> Purge(const Dataset& dataset,
                        const std::vector<uint32_t>& component_of) const;

 private:
  std::string MergeField(const Dataset& dataset,
                         std::span<const TupleId> members,
                         FieldId field) const;

  std::vector<MergeStrategy> strategies_;  // Indexed by field; may be short.
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_PURGE_POLICY_H_
