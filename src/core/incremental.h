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
//   2. inserts them into each key's sorted order (InsertInOrder,
//      core/key_order.h): a binary search per new record finds its slot,
//      then one backward pass shifts the resident tuple ids into place,
//   3. window-scans ONLY the neighborhoods disturbed by insertions —
//      every pair within the window that involves at least one new record
//      (old-old pairs cannot become closer: insertions only push existing
//      records apart). Insertions whose disturbed windows touch form one
//      run, cut into pieces of WindowScanner::kScanChunk entering
//      positions that each reach back window-1 positions: the banded
//      fragments of the paper's parallel SNM (§4.1), so the pieces make
//      exactly the run's comparisons. A batch entering fewer than
//      kPooledScanPositions positions scans its pieces on the calling
//      thread; a larger one (a preload, a replayed WAL batch) scans them
//      on the pool (ParallelFor), one theory clone per task,
//   4. folds the discovered pairs, sorted and deduplicated, into a
//      persistent union-find closure, whose roots carry their set's
//      smallest tuple id, so a label is one read-only walk and nothing is
//      relabeled per batch, and appends them to the pair log.
//
// Guarantee (tested): after any sequence of batches, the incremental pair
// set is a SUPERSET of what a from-scratch multi-pass run over the full
// concatenation finds with the same keys and window — records that were
// neighbors in an earlier, smaller database stay merged even if later
// insertions push them apart.

#ifndef MERGEPURGE_CORE_INCREMENTAL_H_
#define MERGEPURGE_CORE_INCREMENTAL_H_

#include <string>
#include <utility>
#include <vector>

#include "core/merge_purge.h"
#include "core/pair_set.h"
#include "core/union_find.h"
#include "core/window_scanner.h"
#include "keys/key_builder.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

// Result of a read-only probe (MatchOnly): the tuple ids the candidate
// matched inside the disturbed windows, deduplicated across key passes and
// sorted ascending. The probe record itself is never admitted.
struct ProbeResult {
  std::vector<TupleId> matches;
};

class IncrementalMergePurge {
 public:
  // The pooled threshold, in entering positions summed over keys: a
  // batch that enters at least this many scans on the pool. Ordinary
  // service commits of a few dozen records stay below it and start no
  // thread.
  static constexpr size_t kPooledScanPositions =
      2 * WindowScanner::kScanChunk;

  // Wall time of AddBatch's stages for the last accepted batch: insert
  // (conditioning, keying and the per-key inserts), scan (the window
  // scans) and union (admitting the matches into the closure and the
  // pair log).
  struct StageTimes {
    uint64_t insert_us = 0;
    uint64_t scan_us = 0;
    uint64_t union_us = 0;
  };

  // keys/window as in MergePurgeOptions; condition_records applies the
  // employee conditioning to each incoming batch.
  explicit IncrementalMergePurge(MergePurgeOptions options);

  // Checks everything AddBatch checks before it admits a record: the
  // engine options, the batch schema and every key spec. A batch that
  // passes is accepted by AddBatch, so callers can validate before they
  // log the batch durably.
  Status ValidateBatch(const Dataset& batch) const;

  // Merges a new batch of records (same schema as previous batches).
  // Returns the number of NEW matching pairs discovered. All-or-nothing:
  // a batch that fails ValidateBatch leaves the engine as it was. The
  // batch's scans are added to the snm.* counters once (FlushScanStats).
  Result<uint64_t> AddBatch(const Dataset& batch,
                            const EquationalTheory& theory);

  // The closure delta of the last accepted batch, sorted and deduped: a
  // {survivor, absorbed} pair for each pre-batch component labeled
  // `absorbed` that now carries label `survivor` != absorbed — the same
  // set a before/after diff of the resident records' labels yields.
  std::vector<std::pair<uint32_t, uint32_t>> LastBatchMerges() const;

  // The stage split of the last accepted batch's AddBatch.
  const StageTimes& last_batch_stage_times() const { return stage_times_; }

  // Restores the engine from durable state: a record store (already
  // conditioned — Restore never re-conditions) and the pair log, as
  // saved by a service snapshot (service/snapshot.h). Only valid on an
  // engine that has seen no batches. Each key's order is rebuilt by
  // AddBatch's insert, which into an empty order is one sort, as one
  // pool task per key beside one that rebuilds the closure; because
  // every order is the total (key, tuple id) order (KeyTidLess), the
  // rebuilt orders are identical to the ones the original batch sequence
  // produced, and the closure rebuilt from the pairs is canonically
  // labeled — so a restored engine is indistinguishable from the live
  // one it was copied from.
  Status Restore(Dataset records, std::vector<uint64_t> pairs);

  // Read-only probe: conditions and keys `record` exactly as AddBatch
  // would, finds its would-be position in every key's sorted order, and
  // window-scans the neighborhoods it would disturb, with the probe as a
  // virtual position — without copying the record into the store or
  // touching any engine state. The tuple ids returned are exactly the
  // old-record side of the pairs AddBatch would discover for a singleton
  // batch of `record`. The probe's scans are added to the snm.* counters
  // once.
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

  // All matching pairs discovered so far (before closure), each once, as
  // PackMatch(lo, hi) words in commit order: a batch's pairs, sorted,
  // follow the earlier batches'.
  const std::vector<uint64_t>& pairs() const { return pairs_; }

  // Entity label of tuple t: the smallest tuple id of its class under
  // the transitive closure over all batches. O(log n), read-only, so
  // concurrent readers are safe while no AddBatch runs.
  uint32_t Label(TupleId t) const { return closure_.Label(t); }

  // Label(t) for every admitted record.
  std::vector<uint32_t> ComponentLabels() const {
    return closure_.ComponentLabels();
  }

  // The same O(n) labeling as ComponentLabels(); kept under this name
  // for the benchmark programs (perfbench/) that call it.
  std::vector<uint32_t> CachedComponentLabels() const {
    return ComponentLabels();
  }

  // Number of distinct entities so far.
  size_t NumEntities() const { return closure_.NumSets(); }

  // One merged record per entity under the default PurgePolicy.
  Dataset Purge() const;

 private:
  struct KeyState {
    KeyBuilder builder;
    std::vector<TupleId> order;     // All tuple ids, in KeyTidLess order.
    std::vector<std::string> keys;  // Key per tuple id (index = tid).

    // Keys tuples [first_new, all.size()) and inserts them into `order`;
    // returns the positions they land at, ascending.
    std::vector<size_t> Insert(const Dataset& all, TupleId first_new);
  };

  MergePurgeOptions options_;
  Dataset all_;
  std::vector<KeyState> key_states_;
  std::vector<uint64_t> pairs_;  // The pair log (pairs()).
  UnionFind closure_{0};
  // Pre-union labels of the resident components the last batch's unions
  // joined (may repeat); LastBatchMerges() maps them to the delta.
  std::vector<uint32_t> touched_;
  StageTimes stage_times_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_INCREMENTAL_H_
