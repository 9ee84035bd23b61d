#include "core/purge_policy.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "util/thread_pool.h"

namespace mergepurge {

Result<MergeStrategy> MergeStrategyFromName(std::string_view name) {
  if (name == "longest") return MergeStrategy::kLongest;
  if (name == "most_frequent") return MergeStrategy::kMostFrequent;
  if (name == "first_seen") return MergeStrategy::kFirstSeen;
  if (name == "non_empty_first") return MergeStrategy::kNonEmptyFirst;
  if (name == "concat_distinct") return MergeStrategy::kConcatDistinct;
  return Status::InvalidArgument("unknown merge strategy '" +
                                 std::string(name) + "'");
}

void PurgePolicy::Set(FieldId field, MergeStrategy strategy) {
  if (field >= strategies_.size()) {
    strategies_.resize(field + 1, MergeStrategy::kLongest);
  }
  strategies_[field] = strategy;
}

MergeStrategy PurgePolicy::strategy_for(FieldId field) const {
  return field < strategies_.size() ? strategies_[field]
                                    : MergeStrategy::kLongest;
}

std::string PurgePolicy::MergeField(const Dataset& dataset,
                                    const std::vector<TupleId>& members,
                                    FieldId field) const {
  switch (strategy_for(field)) {
    case MergeStrategy::kLongest: {
      std::string_view best;
      for (TupleId t : members) {
        std::string_view value = dataset.record(t).field(field);
        if (value.size() > best.size()) best = value;
      }
      return std::string(best);
    }
    case MergeStrategy::kMostFrequent: {
      // Modal non-empty value; ties go to the value seen first so the
      // result is deterministic.
      std::map<std::string_view, size_t> counts;
      std::string_view best;
      size_t best_count = 0;
      for (TupleId t : members) {
        std::string_view value = dataset.record(t).field(field);
        if (value.empty()) continue;
        size_t count = ++counts[value];
        if (count > best_count) {
          best_count = count;
          best = value;
        }
      }
      return std::string(best);
    }
    case MergeStrategy::kFirstSeen:
      return std::string(dataset.record(members.front()).field(field));
    case MergeStrategy::kNonEmptyFirst: {
      for (TupleId t : members) {
        std::string_view value = dataset.record(t).field(field);
        if (!value.empty()) return std::string(value);
      }
      return "";
    }
    case MergeStrategy::kConcatDistinct: {
      std::string out;
      std::vector<std::string_view> seen;
      for (TupleId t : members) {
        std::string_view value = dataset.record(t).field(field);
        if (value.empty()) continue;
        if (std::find(seen.begin(), seen.end(), value) != seen.end()) {
          continue;
        }
        seen.push_back(value);
        if (!out.empty()) out += " / ";
        out += value;
      }
      return out;
    }
  }
  return "";
}

Record PurgePolicy::MergeClass(const Dataset& dataset,
                               const std::vector<TupleId>& members) const {
  std::vector<std::string> fields(dataset.schema().num_fields());
  for (FieldId f = 0; f < fields.size(); ++f) {
    fields[f] = MergeField(dataset, members, f);
  }
  return Record(std::move(fields));
}

Dataset PurgePolicy::Purge(const Dataset& dataset,
                           const std::vector<uint32_t>& component_of) const {
  std::unordered_map<uint32_t, size_t> component_to_group;
  std::vector<std::vector<TupleId>> groups;
  for (size_t t = 0; t < dataset.size() && t < component_of.size(); ++t) {
    auto [it, inserted] =
        component_to_group.emplace(component_of[t], groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(static_cast<TupleId>(t));
  }
  // Groups are merged range by range on the pool, each into its slot.
  std::vector<Record> merged(groups.size());
  ParallelFor(groups.size(), AvailableCpus(), [&](size_t begin, size_t end) {
    for (size_t g = begin; g < end; ++g) {
      merged[g] = MergeClass(dataset, groups[g]);
    }
  });
  return Dataset(dataset.schema(), std::move(merged));
}

}  // namespace mergepurge
