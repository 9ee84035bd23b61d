// IncrementalMergePurge: month-over-month operation.
//
// The paper's motivating scenario (§1) is periodic: "It is not uncommon
// for large businesses to acquire scores of databases each month ... that
// need to be analyzed within a few days." Re-running the full multi-pass
// process over the ever-growing concatenation each month wastes the work
// already done, so this engine keeps, per key, the sorted order of all
// records seen so far and, when a batch arrives:
//
//   1. conditions and keys the new records,
//   2. merges them into each key's sorted order (one linear merge),
//   3. window-scans ONLY the neighborhoods disturbed by insertions —
//      every pair within the window that involves at least one new record
//      (old-old pairs cannot become closer: insertions only push existing
//      records apart),
//   4. folds the discovered pairs into a persistent union-find closure.
//
// Guarantee (tested): after any sequence of batches, the incremental pair
// set is a SUPERSET of what a from-scratch multi-pass run over the full
// concatenation finds with the same keys and window — records that were
// neighbors in an earlier, smaller database stay merged even if later
// insertions push them apart.

#ifndef MERGEPURGE_CORE_INCREMENTAL_H_
#define MERGEPURGE_CORE_INCREMENTAL_H_

#include <string>
#include <vector>

#include "core/merge_purge.h"
#include "core/pair_set.h"
#include "core/union_find.h"
#include "keys/key_builder.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/status.h"
#include "util/sync.h"

namespace mergepurge {

// Result of a read-only probe (MatchOnly): the tuple ids the candidate
// matched inside the disturbed windows, deduplicated across key passes and
// sorted ascending. The probe record itself is never admitted.
struct ProbeResult {
  std::vector<TupleId> matches;
};

class IncrementalMergePurge {
 public:
  // keys/window as in MergePurgeOptions; condition_records applies the
  // employee conditioning to each incoming batch.
  explicit IncrementalMergePurge(MergePurgeOptions options);

  // Merges a new batch of records (same schema as previous batches).
  // Returns the number of NEW matching pairs discovered.
  Result<uint64_t> AddBatch(const Dataset& batch,
                            const EquationalTheory& theory);

  // Restores the engine from durable state: a record store (already
  // conditioned — Restore never re-conditions) and the pair set, as
  // saved by a service snapshot (service/snapshot.h). Only valid on an
  // engine that has seen no batches. Per-key sorted orders are rebuilt
  // by a full sort; because AddBatch's merge is ordered by the same
  // total (key, tuple id) comparator, the rebuilt orders are identical
  // to the ones the original batch sequence produced, and the closure
  // rebuilt from the pairs is canonically labeled — so a restored
  // engine is indistinguishable from the live one it was copied from.
  Status Restore(Dataset records, PairSet pairs);

  // Read-only probe: conditions and keys `record` exactly as AddBatch
  // would, finds its would-be position in every key's sorted order, and
  // window-scans the neighborhoods it would disturb — without copying the
  // record into the store or touching any engine state. The tuple ids
  // returned are exactly the old-record side of the pairs AddBatch would
  // discover for a singleton batch of `record`.
  //
  // Thread-safety: concurrent MatchOnly calls are safe provided no
  // AddBatch runs concurrently (single-writer / multi-reader; the service
  // layer enforces this with a shared_mutex).
  Result<ProbeResult> MatchOnly(const Record& record,
                                const EquationalTheory& theory) const;

  // All records accepted so far (conditioned if the option is on); tuple
  // ids are stable across batches.
  const Dataset& records() const { return all_; }

  size_t size() const { return all_.size(); }

  // All matching pairs discovered so far (before closure).
  const PairSet& pairs() const { return pairs_; }

  // Current equivalence classes (transitive closure over all batches).
  // Canonically labeled (smallest tuple id of each class, see
  // UnionFind::ComponentLabels). The labeling is computed at most once per
  // batch: results are cached and invalidated by AddBatch, so per-request
  // callers (the match service) pay O(1) amortized instead of an O(n)
  // closure walk per call.
  std::vector<uint32_t> ComponentLabels() const;

  // Zero-copy variant: a reference to the internal label cache, rebuilt
  // if a batch invalidated it. The reference stays valid and constant
  // until the next AddBatch. Concurrent callers serialize only on the
  // (cheap) cache check; the union-find itself is never mutated by
  // readers once the cache is warm.
  const std::vector<uint32_t>& CachedComponentLabels() const;

  // Number of distinct entities so far.
  size_t NumEntities() const {
    MutexLock lock(labels_mu_);
    return closure_.NumSets();
  }

  // One merged record per entity under the default PurgePolicy.
  Dataset Purge() const;

 private:
  struct KeyState {
    KeySpec spec;
    std::vector<TupleId> order;     // All tuple ids, sorted by key.
    std::vector<std::string> keys;  // Key per tuple id (index = tid).
  };

  MergePurgeOptions options_;
  Dataset all_;
  std::vector<KeyState> key_states_;
  PairSet pairs_;

  // labels_mu_ guards the label cache AND the union-find itself: readers
  // trigger path compression inside closure_.ComponentLabels() during a
  // rebuild, and AddBatch holds the lock across its Grow/Union mutations,
  // so concurrent readers never race on the parent array.
  mutable Mutex labels_mu_{lockrank::kLabels};
  mutable UnionFind closure_ MERGEPURGE_GUARDED_BY(labels_mu_){0};
  mutable bool labels_valid_ MERGEPURGE_GUARDED_BY(labels_mu_) = false;
  mutable std::vector<uint32_t> labels_cache_
      MERGEPURGE_GUARDED_BY(labels_mu_);
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_INCREMENTAL_H_
