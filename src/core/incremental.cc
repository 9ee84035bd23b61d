#include "core/incremental.h"

#include <algorithm>

#include "core/purge_policy.h"
#include "text/normalize.h"

namespace mergepurge {

IncrementalMergePurge::IncrementalMergePurge(MergePurgeOptions options)
    : options_(std::move(options)) {
  for (const KeySpec& spec : options_.keys) {
    KeyState state;
    state.spec = spec;
    key_states_.push_back(std::move(state));
  }
}

namespace {

// The total order of every key's sorted order: key, then tuple id.
struct KeyThenTid {
  const std::vector<std::string>& keys;
  bool operator()(TupleId a, TupleId b) const {
    const int cmp = keys[a].compare(keys[b]);
    return cmp != 0 ? cmp < 0 : a < b;
  }
};

}  // namespace

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
    MERGEPURGE_RETURN_NOT_OK(KeyBuilder(state.spec).Validate(batch.schema()));
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
  const TupleId end_new = static_cast<TupleId>(all_.size());
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

  std::vector<TupleId> fresh;
  std::vector<size_t> ins;
  std::vector<const Record*> rows;
  for (KeyState& state : key_states_) {
    KeyBuilder builder(state.spec);
    const KeyThenTid less{state.keys};

    // Key + sort the new tuple ids.
    state.keys.resize(all_.size());
    fresh.clear();
    for (TupleId t = first_new; t < end_new; ++t) {
      state.keys[t] = builder.BuildKey(all_.record(t));
      fresh.push_back(t);
    }
    std::sort(fresh.begin(), fresh.end(), less);

    // Insertion point of each fresh record among the resident ones; the
    // points ascend with the sorted fresh records.
    std::vector<TupleId>& order = state.order;
    const size_t resident = order.size();
    ins.resize(fresh.size());
    for (size_t k = 0; k < fresh.size(); ++k) {
      ins[k] = static_cast<size_t>(
          std::upper_bound(order.begin(), order.end(), fresh[k], less) -
          order.begin());
    }
    // One backward pass: resident ids from ins[k] up to the next
    // insertion point move up by k + 1, and fresh record k lands at
    // ins[k] + k.
    order.resize(resident + fresh.size());
    size_t end = resident;
    for (size_t k = fresh.size(); k-- > 0;) {
      std::move_backward(order.begin() + ins[k], order.begin() + end,
                         order.begin() + end + k + 1);
      order[ins[k] + k] = fresh[k];
      end = ins[k];
    }

    // Window-scan only the disturbed neighborhoods: every in-window pair
    // involving at least one new record. Each neighborhood is loaded as
    // the theory's rows once; row r holds position lo + r.
    for (size_t k = 0; k < fresh.size(); ++k) {
      const size_t p = ins[k] + k;
      const size_t lo = p >= w - 1 ? p - (w - 1) : 0;
      const size_t hi = std::min(order.size(), p + w);
      rows.clear();
      for (size_t q = lo; q < hi; ++q) rows.push_back(&all_.record(order[q]));
      theory.LoadRows(rows.data(), rows.size());
      for (size_t q = lo; q < p; ++q) {
        // New-new pairs are scanned once (q < p); new-old always.
        if (theory.MatchesRows(q - lo, p - lo)) admit(order[q], order[p]);
      }
      for (size_t q = p + 1; q < hi; ++q) {
        if (order[q] >= first_new) continue;  // Handled from q's own loop.
        if (theory.MatchesRows(p - lo, q - lo)) admit(order[p], order[q]);
      }
    }
  }
  return new_pairs;
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

  for (KeyState& state : key_states_) {
    KeyBuilder builder(state.spec);
    MERGEPURGE_RETURN_NOT_OK(builder.Validate(all_.schema()));
    state.keys.resize(all_.size());
    state.order.resize(all_.size());
    for (TupleId t = 0; t < static_cast<TupleId>(all_.size()); ++t) {
      state.keys[t] = builder.BuildKey(all_.record(t));
      state.order[t] = t;
    }
    std::sort(state.order.begin(), state.order.end(), KeyThenTid{state.keys});
  }
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
  std::vector<const Record*> rows;
  for (const KeyState& state : key_states_) {
    KeyBuilder builder(state.spec);
    MERGEPURGE_RETURN_NOT_OK(builder.Validate(all_.schema()));
    const std::string probe_key = builder.BuildKey(probe);
    // A probe admitted now would carry the largest tuple id, so among
    // equal keys it sorts after every existing record (AddBatch's
    // tie-break): its position is the first entry with a greater key.
    const auto pos = std::upper_bound(
        state.order.begin(), state.order.end(), probe_key,
        [&state](const std::string& key, TupleId t) {
          return key.compare(state.keys[t]) < 0;
        });
    const size_t p = static_cast<size_t>(pos - state.order.begin());
    // The neighbors that would land at distances 1..w-1 before and after
    // the probe, then the probe: row r holds position lo + r.
    const size_t lo = p >= w - 1 ? p - (w - 1) : 0;
    const size_t hi = std::min(state.order.size(), p + (w - 1));
    rows.clear();
    for (size_t q = lo; q < hi; ++q) {
      rows.push_back(&all_.record(state.order[q]));
    }
    rows.push_back(&probe);
    theory.LoadRows(rows.data(), rows.size());
    const size_t probe_row = hi - lo;
    for (size_t q = lo; q < hi; ++q) {
      const TupleId t = state.order[q];
      if (matched(t)) continue;
      if (q < p ? theory.MatchesRows(q - lo, probe_row)
                : theory.MatchesRows(probe_row, q - lo)) {
        result.matches.push_back(t);
      }
    }
  }
  std::sort(result.matches.begin(), result.matches.end());
  return result;
}

Dataset IncrementalMergePurge::Purge() const {
  // The closure labels every record with a tuple id, so this cannot fail.
  return PurgePolicy().Purge(all_, ComponentLabels()).value();
}

}  // namespace mergepurge
