#include "core/purge_policy.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/string_util.h"
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
                                    std::span<const TupleId> members,
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
                               std::span<const TupleId> members) const {
  std::vector<std::string> fields(dataset.schema().num_fields());
  for (FieldId f = 0; f < fields.size(); ++f) {
    fields[f] = MergeField(dataset, members, f);
  }
  return Record(std::move(fields));
}

Result<Dataset> PurgePolicy::Purge(
    const Dataset& dataset, const std::vector<uint32_t>& component_of) const {
  const size_t n = dataset.size();
  if (component_of.size() != n) {
    return Status::InvalidArgument(StringPrintf(
        "purge: %zu labels for %zu records", component_of.size(), n));
  }
  // Classes in order of first appearance: group_of[label] is the class's
  // index, and members_of[g]..members_of[g + 1] its slice of `members`,
  // filled in ascending tuple id.
  constexpr uint32_t kNoGroup = static_cast<uint32_t>(-1);
  std::vector<uint32_t> group_of(n, kNoGroup);
  std::vector<uint32_t> members_of;
  for (size_t t = 0; t < n; ++t) {
    const uint32_t label = component_of[t];
    if (label >= n) {
      return Status::InvalidArgument(StringPrintf(
          "purge: tuple %zu has label %u, not a tuple id below %zu", t, label,
          n));
    }
    if (group_of[label] == kNoGroup) {
      group_of[label] = static_cast<uint32_t>(members_of.size());
      members_of.push_back(0);
    }
    ++members_of[group_of[label]];
  }
  const size_t num_groups = members_of.size();
  uint32_t start = 0;
  for (uint32_t& slot : members_of) start += std::exchange(slot, start);
  members_of.push_back(start);
  std::vector<TupleId> members(n);
  std::vector<uint32_t> next(members_of.begin(), members_of.end() - 1);
  for (size_t t = 0; t < n; ++t) {
    members[next[group_of[component_of[t]]]++] = static_cast<TupleId>(t);
  }
  // Groups are merged range by range on the pool, each into its slot.
  std::vector<Record> merged(num_groups);
  ParallelFor(num_groups, AvailableCpus(), [&](size_t begin, size_t end) {
    for (size_t g = begin; g < end; ++g) {
      merged[g] = MergeClass(
          dataset, std::span<const TupleId>(members).subspan(
                       members_of[g], members_of[g + 1] - members_of[g]));
    }
  });
  return Dataset(dataset.schema(), std::move(merged));
}

}  // namespace mergepurge
