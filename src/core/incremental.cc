#include "core/incremental.h"

#include <algorithm>

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

Result<uint64_t> IncrementalMergePurge::AddBatch(
    const Dataset& batch, const EquationalTheory& theory) {
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
  // Validate every key before admitting anything: a bad key spec must
  // leave the engine exactly as it was.
  for (const KeyState& state : key_states_) {
    MERGEPURGE_RETURN_NOT_OK(KeyBuilder(state.spec).Validate(batch.schema()));
  }

  // Any admitted record changes the partition (at minimum it adds a
  // singleton): drop the label cache, and keep holding labels_mu_ for the
  // rest of the batch so the closure_ mutations below (Grow, the scan's
  // Unions) are covered by the same lock readers take to rebuild the
  // cache. AddBatch callers are single-writer, so the long hold contends
  // with nothing in correct use; it exists to make incorrect use (a
  // reader racing a batch) crash into the lock instead of the parent
  // array.
  MutexLock labels_lock(labels_mu_);
  labels_valid_ = false;

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

  const size_t w = options_.window;
  uint64_t new_pairs = 0;

  for (KeyState& state : key_states_) {
    KeyBuilder builder(state.spec);

    // Key + sort the new tuple ids.
    state.keys.resize(all_.size());
    std::vector<TupleId> fresh;
    fresh.reserve(end_new - first_new);
    for (TupleId t = first_new; t < end_new; ++t) {
      state.keys[t] = builder.BuildKey(all_.record(t));
      fresh.push_back(t);
    }
    std::sort(fresh.begin(), fresh.end(),
              [&state](TupleId a, TupleId b) {
                int cmp = state.keys[a].compare(state.keys[b]);
                if (cmp != 0) return cmp < 0;
                return a < b;
              });

    // Linear merge into the existing order; is_new marks fresh positions.
    std::vector<TupleId> merged;
    merged.reserve(state.order.size() + fresh.size());
    std::vector<char> is_new;
    is_new.reserve(merged.capacity());
    size_t i = 0;
    size_t j = 0;
    while (i < state.order.size() && j < fresh.size()) {
      int cmp = state.keys[state.order[i]].compare(state.keys[fresh[j]]);
      bool take_old = cmp < 0 || (cmp == 0 && state.order[i] < fresh[j]);
      merged.push_back(take_old ? state.order[i] : fresh[j]);
      is_new.push_back(take_old ? 0 : 1);
      take_old ? ++i : ++j;
    }
    for (; i < state.order.size(); ++i) {
      merged.push_back(state.order[i]);
      is_new.push_back(0);
    }
    for (; j < fresh.size(); ++j) {
      merged.push_back(fresh[j]);
      is_new.push_back(1);
    }

    // Window-scan only the disturbed neighborhoods: every in-window pair
    // involving at least one new record.
    for (size_t p = 0; p < merged.size(); ++p) {
      if (!is_new[p]) continue;
      const size_t lo = p >= w - 1 ? p - (w - 1) : 0;
      for (size_t q = lo; q < p; ++q) {
        // New-new pairs are scanned once (q < p); new-old always.
        if (theory.Matches(all_.record(merged[q]),
                           all_.record(merged[p]))) {
          if (pairs_.Add(merged[q], merged[p])) ++new_pairs;
          closure_.Union(merged[q], merged[p]);
        }
      }
      const size_t hi = std::min(merged.size(), p + w);
      for (size_t q = p + 1; q < hi; ++q) {
        if (is_new[q]) continue;  // Handled from q's own loop.
        if (theory.Matches(all_.record(merged[p]),
                           all_.record(merged[q]))) {
          if (pairs_.Add(merged[p], merged[q])) ++new_pairs;
          closure_.Union(merged[p], merged[q]);
        }
      }
    }
    state.order = std::move(merged);
  }
  return new_pairs;
}

Status IncrementalMergePurge::Restore(Dataset records, PairSet pairs) {
  if (options_.keys.empty()) {
    return Status::InvalidArgument("no keys configured");
  }
  if (!all_.empty()) {
    return Status::InvalidArgument("Restore requires an empty engine");
  }
  MutexLock labels_lock(labels_mu_);
  labels_valid_ = false;
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
    std::sort(state.order.begin(), state.order.end(),
              [&state](TupleId a, TupleId b) {
                int cmp = state.keys[a].compare(state.keys[b]);
                if (cmp != 0) return cmp < 0;
                return a < b;
              });
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
  std::vector<char> matched(all_.size(), 0);
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
    // Neighbors that would land at distances 1..w-1 before the probe.
    const size_t lo = p >= w - 1 ? p - (w - 1) : 0;
    for (size_t q = lo; q < p; ++q) {
      const TupleId t = state.order[q];
      if (matched[t]) continue;
      if (theory.Matches(all_.record(t), probe)) {
        matched[t] = 1;
        result.matches.push_back(t);
      }
    }
    // ... and at distances 1..w-1 after it.
    const size_t hi = std::min(state.order.size(), p + (w - 1));
    for (size_t q = p; q < hi; ++q) {
      const TupleId t = state.order[q];
      if (matched[t]) continue;
      if (theory.Matches(probe, all_.record(t))) {
        matched[t] = 1;
        result.matches.push_back(t);
      }
    }
  }
  std::sort(result.matches.begin(), result.matches.end());
  return result;
}

const std::vector<uint32_t>& IncrementalMergePurge::CachedComponentLabels()
    const {
  MutexLock lock(labels_mu_);
  if (!labels_valid_) {
    labels_cache_ = closure_.ComponentLabels();
    labels_valid_ = true;
  }
  return labels_cache_;
}

std::vector<uint32_t> IncrementalMergePurge::ComponentLabels() const {
  return CachedComponentLabels();
}

Dataset IncrementalMergePurge::Purge() const {
  MergePurgeResult result;
  result.component_of = ComponentLabels();
  return result.Purge(all_);
}

}  // namespace mergepurge
