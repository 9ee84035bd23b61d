#include "core/incremental.h"

#include <algorithm>
#include <memory>

#include "core/key_order.h"
#include "core/purge_policy.h"
#include "text/normalize.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mergepurge {
namespace {

// One stretch of one key's order to scan (ScanWindows): positions
// entering at [fresh, end), with window context from `begin`.
struct ScanPiece {
  size_t key = 0;
  size_t begin = 0;
  size_t fresh = 0;
  size_t end = 0;
};

}  // namespace

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
  Timer stage_timer;

  // Append the batch to the store, conditioned in place.
  const TupleId first_new = static_cast<TupleId>(all_.size());
  if (all_.empty()) all_ = Dataset(batch.schema());
  for (const Record& r : batch.records()) all_.Append(r);
  if (options_.condition_records) {
    for (TupleId t = first_new; t < all_.size(); ++t) {
      ConditionEmployeeRecord(&all_.mutable_record(t));
    }
  }
  closure_.Grow(all_.size());
  touched_.clear();

  // Plan. Insert the batch into every key's order, on this thread (the
  // inserts are about a tenth of a large batch's time). A record inserted
  // at p disturbs the windows entering at p..p+w-1, so insertions whose
  // disturbed windows touch form one run of entering positions. A run is
  // cut into pieces of kScanChunk entering positions, each reaching back
  // w-1 positions into the run (the band of paper §4.1), so the pieces
  // make exactly the run's comparisons.
  const size_t w = options_.window;
  std::vector<std::vector<size_t>> inserted(key_states_.size());
  for (size_t k = 0; k < key_states_.size(); ++k) {
    inserted[k] = key_states_[k].Insert(all_, first_new);
  }
  std::vector<ScanPiece> pieces;
  size_t entering = 0;
  for (size_t key = 0; key < key_states_.size(); ++key) {
    const std::vector<size_t>& at = inserted[key];
    const size_t n = key_states_[key].order.size();
    for (size_t k = 0; k < at.size();) {
      const size_t first = at[k];
      size_t last = first;
      while (++k < at.size() && at[k] <= last + w) last = at[k];
      const size_t run_begin = first - std::min(first, w - 1);
      const size_t run_end = std::min(n, last + w);
      for (size_t s = first; s < run_end; s += WindowScanner::kScanChunk) {
        pieces.push_back({key, std::max(run_begin, s - std::min(s, w - 1)), s,
                          std::min(run_end, s + WindowScanner::kScanChunk)});
      }
      entering += run_end - first;
    }
  }
  stage_times_.insert_us = stage_timer.ElapsedMicros();
  stage_timer.Restart();

  // Scan. Pieces are grouped in order into tasks of about kScanChunk
  // entering positions, and each task keeps the pairs that involve a new
  // record, so the tasks' matches in task order are the serial scan's.
  // Below kPooledScanPositions the tasks run on the calling thread with
  // `theory`; above it, on the pool, each with its own clone, which
  // flushes its rule metrics; the clones' comparisons are then added to
  // `theory`. The tasks' scan stats reach the snm.* counters once.
  std::vector<size_t> task_begin = {0};
  for (size_t k = 0, load = 0; k < pieces.size(); ++k) {
    load += pieces[k].end - pieces[k].fresh;
    if (load >= WindowScanner::kScanChunk || k + 1 == pieces.size()) {
      task_begin.push_back(k + 1);
      load = 0;
    }
  }
  std::vector<std::vector<uint64_t>> matches(task_begin.size() - 1);
  std::vector<ScanStats> task_stats(matches.size());
  auto scan = [&](size_t task, const EquationalTheory& task_theory) {
    for (size_t k = task_begin[task]; k < task_begin[task + 1]; ++k) {
      const ScanPiece& piece = pieces[k];
      const std::vector<TupleId>& order = key_states_[piece.key].order;
      task_stats[task] += ScanWindows(
          w, piece.begin, piece.fresh, piece.end, task_theory,
          [&](size_t p) -> const Record& { return all_.record(order[p]); },
          [&](size_t j, size_t i) {
            return order[j] >= first_new || order[i] >= first_new;
          },
          [&](size_t j, size_t i) {
            matches[task].push_back(PackMatch(order[j], order[i]));
          });
    }
  };
  const bool pooled = entering >= kPooledScanPositions;
  if (!pooled) {
    for (size_t task = 0; task < matches.size(); ++task) scan(task, theory);
  } else {
    ParallelFor(
        matches.size(), AvailableCpus(),
        [&](size_t begin, size_t end) {
          for (size_t task = begin; task < end; ++task) {
            const std::unique_ptr<EquationalTheory> clone = theory.Clone();
            scan(task, *clone);
            clone->FlushMetrics();
          }
        },
        /*grain=*/1);
  }
  ScanStats batch_stats;
  for (const ScanStats& stats : task_stats) batch_stats += stats;
  if (pooled) theory.AddComparisons(batch_stats.comparisons);
  FlushScanStats(batch_stats);
  stage_times_.scan_us = stage_timer.ElapsedMicros();
  stage_timer.Restart();

  // Union. Every match names a tid of the batch, so the batch's distinct
  // pairs are all new: each joins the closure, after the labels of the
  // resident components it joins are noted, and is appended to the log.
  std::vector<uint64_t> batch_matches;
  for (const std::vector<uint64_t>& task_matches : matches) {
    batch_matches.insert(batch_matches.end(), task_matches.begin(),
                         task_matches.end());
  }
  const PairSet batch_pairs(std::move(batch_matches));
  batch_pairs.ForEach([&](TupleId a, TupleId b) {
    for (uint32_t label : {closure_.Label(a), closure_.Label(b)}) {
      if (label < first_new) touched_.push_back(label);
    }
    closure_.Union(a, b);
  });
  pairs_.insert(pairs_.end(), batch_pairs.packed().begin(),
                batch_pairs.packed().end());
  stage_times_.union_us = stage_timer.ElapsedMicros();
  return batch_pairs.size();
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

Status IncrementalMergePurge::Restore(Dataset records,
                                      std::vector<uint64_t> pairs) {
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
  // One task per key order, and one more that rebuilds the closure:
  // the tasks write disjoint state and only read the store. Union-find
  // labels are canonical whatever the union order, so the pairs are
  // unioned in the order given.
  ParallelFor(
      key_states_.size() + 1, AvailableCpus(),
      [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) {
          if (k < key_states_.size()) {
            key_states_[k].Insert(all_, 0);
            continue;
          }
          for (const uint64_t pair : pairs_) {
            closure_.Union(PackedHigh(pair), PackedLow(pair));
          }
        }
      },
      /*grain=*/1);
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
  ScanStats stats;
  // Every key was validated against the store's schema when it was filled.
  for (const KeyState& state : key_states_) {
    // The probe's slot p in the order it would join, as AddBatch would
    // insert it: the residents at positions >= p sit one further on.
    const std::vector<TupleId>& order = state.order;
    const size_t p = InsertionPoint(state.keys, order,
                                    state.builder.BuildKey(probe), probe_tid);
    auto tid_at = [&](size_t q) { return order[q < p ? q : q - 1]; };
    stats += ScanWindows(
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
  FlushScanStats(stats);
  std::sort(result.matches.begin(), result.matches.end());
  return result;
}

Dataset IncrementalMergePurge::Purge() const {
  // The closure labels every record with a tuple id, so this cannot fail.
  return PurgePolicy().Purge(all_, ComponentLabels()).value();
}

}  // namespace mergepurge
