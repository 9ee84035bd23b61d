#include "core/incremental.h"

#include <algorithm>

#include "core/key_order.h"
#include "core/purge_policy.h"
#include "core/window_scanner.h"
#include "text/normalize.h"

namespace mergepurge {

IncrementalMergePurge::IncrementalMergePurge(MergePurgeOptions options)
    : options_(std::move(options)) {
  for (const KeySpec& spec : options_.keys) {
    key_states_.push_back({KeyBuilder(spec), {}, {}});
  }
}

Status IncrementalMergePurge::ValidateBatch(const Dataset& batch) const {
  if (options_.keys.empty()) {
    return Status::InvalidArgument("no keys configured");
  }
  if (options_.window < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }
  if (!all_.empty() && !(all_.schema() == batch.schema())) {
    return Status::InvalidArgument("batch schema differs from previous");
  }
  if (options_.condition_records &&
      !(batch.schema() == employee::MakeSchema())) {
    return Status::InvalidArgument(
        "condition_records=true requires the employee schema");
  }
  for (const KeyState& state : key_states_) {
    MERGEPURGE_RETURN_NOT_OK(state.builder.Validate(batch.schema()));
  }
  return Status::OK();
}

Result<uint64_t> IncrementalMergePurge::AddBatch(
    const Dataset& batch, const EquationalTheory& theory) {
  // Validate before admitting anything: a rejected batch must leave the
  // engine exactly as it was.
  MERGEPURGE_RETURN_NOT_OK(ValidateBatch(batch));

  // Condition a private copy of the batch, then append to the store.
  Dataset conditioned;
  const Dataset* incoming = &batch;
  if (options_.condition_records) {
    conditioned = batch;
    ConditionEmployeeDataset(&conditioned);
    incoming = &conditioned;
  }
  const TupleId first_new = static_cast<TupleId>(all_.size());
  if (all_.empty()) all_ = Dataset(batch.schema());
  for (const Record& r : incoming->records()) all_.Append(r);
  closure_.Grow(all_.size());
  touched_.clear();

  const size_t w = options_.window;
  uint64_t new_pairs = 0;
  // Records a match: the pair, and — before the union changes it — the
  // label of each resident component the union joins.
  auto admit = [&](TupleId a, TupleId b) {
    if (pairs_.Add(a, b)) ++new_pairs;
    for (uint32_t label : {closure_.Label(a), closure_.Label(b)}) {
      if (label < first_new) touched_.push_back(label);
    }
    closure_.Union(a, b);
  };

  for (KeyState& state : key_states_) {
    const std::vector<size_t> inserted = state.Insert(all_, first_new);
    const std::vector<TupleId>& order = state.order;
    // A record inserted at p disturbs the windows entering at p..p+w-1,
    // so insertions whose disturbed windows touch scan as one range,
    // keeping the pairs that involve a new record.
    for (size_t k = 0; k < inserted.size();) {
      const size_t first = inserted[k];
      size_t last = first;
      while (++k < inserted.size() && inserted[k] <= last + w) {
        last = inserted[k];
      }
      ScanWindows(
          w, first >= w - 1 ? first - (w - 1) : 0, first,
          std::min(order.size(), last + w), theory,
          [&](size_t p) -> const Record& { return all_.record(order[p]); },
          [&](size_t j, size_t i) {
            return order[j] >= first_new || order[i] >= first_new;
          },
          [&](size_t j, size_t i) { admit(order[j], order[i]); });
    }
  }
  return new_pairs;
}

std::vector<size_t> IncrementalMergePurge::KeyState::Insert(
    const Dataset& all, TupleId first_new) {
  keys.resize(all.size());
  for (TupleId t = first_new; t < static_cast<TupleId>(all.size()); ++t) {
    keys[t] = builder.BuildKey(all.record(t));
  }
  return InsertInOrder(keys, first_new, &order);
}

std::vector<std::pair<uint32_t, uint32_t>>
IncrementalMergePurge::LastBatchMerges() const {
  // Every member of a pre-batch component shares its old label L and its
  // new label Label(L), so one entry per touched component reproduces the
  // full before/after label diff.
  std::vector<std::pair<uint32_t, uint32_t>> merges;
  for (uint32_t absorbed : touched_) {
    const uint32_t survivor = closure_.Label(absorbed);
    if (survivor != absorbed) merges.emplace_back(survivor, absorbed);
  }
  std::sort(merges.begin(), merges.end());
  merges.erase(std::unique(merges.begin(), merges.end()), merges.end());
  return merges;
}

Status IncrementalMergePurge::Restore(Dataset records, PairSet pairs) {
  if (options_.keys.empty()) {
    return Status::InvalidArgument("no keys configured");
  }
  if (!all_.empty()) {
    return Status::InvalidArgument("Restore requires an empty engine");
  }
  for (const KeyState& state : key_states_) {
    MERGEPURGE_RETURN_NOT_OK(state.builder.Validate(records.schema()));
  }
  all_ = std::move(records);
  pairs_ = std::move(pairs);
  closure_.Grow(all_.size());
  // Deterministic order is not needed for correctness (union-find labels
  // are canonical regardless of union order) but keeps recovery runs
  // reproducible; this is a startup-only path, so the materialized copy
  // is fine.
  for (const auto& [lo, hi] : pairs_.ToSortedVector()) {
    closure_.Union(lo, hi);
  }

  for (KeyState& state : key_states_) state.Insert(all_, 0);
  return Status::OK();
}

Result<ProbeResult> IncrementalMergePurge::MatchOnly(
    const Record& record, const EquationalTheory& theory) const {
  if (options_.keys.empty()) {
    return Status::InvalidArgument("no keys configured");
  }
  if (options_.window < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }
  ProbeResult result;
  if (all_.empty()) return result;

  Record probe = record;
  if (options_.condition_records) ConditionEmployeeRecord(&probe);

  const size_t w = options_.window;
  // At most keys x 2(w - 1) candidates, so a candidate already matched
  // under an earlier key is looked up in the (short) match list.
  auto matched = [&result](TupleId t) {
    return std::find(result.matches.begin(), result.matches.end(), t) !=
           result.matches.end();
  };
  const TupleId probe_tid = static_cast<TupleId>(all_.size());
  // Every key was validated against the store's schema when it was filled.
  for (const KeyState& state : key_states_) {
    // The probe's slot p in the order it would join, as AddBatch would
    // insert it: the residents at positions >= p sit one further on.
    const std::vector<TupleId>& order = state.order;
    const size_t p = InsertionPoint(state.keys, order,
                                    state.builder.BuildKey(probe), probe_tid);
    auto tid_at = [&](size_t q) { return order[q < p ? q : q - 1]; };
    ScanWindows(
        w, p >= w - 1 ? p - (w - 1) : 0, p, std::min(order.size() + 1, p + w),
        theory,
        [&](size_t q) -> const Record& {
          return q == p ? probe : all_.record(tid_at(q));
        },
        [&](size_t j, size_t i) {
          return (j == p || i == p) && !matched(tid_at(j == p ? i : j));
        },
        [&](size_t j, size_t i) {
          result.matches.push_back(tid_at(j == p ? i : j));
        });
  }
  std::sort(result.matches.begin(), result.matches.end());
  return result;
}

Dataset IncrementalMergePurge::Purge() const {
  // The closure labels every record with a tuple id, so this cannot fail.
  return PurgePolicy().Purge(all_, ComponentLabels()).value();
}

}  // namespace mergepurge
