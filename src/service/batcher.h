// UpsertBatcher: coalesces concurrent upsert requests into one engine
// batch under a latency deadline.
//
// Why: every commit pays fixed costs that do not grow with its size — one
// WAL append and fsync, one exclusive hand-off of the engine lock (which
// stalls every reader), and per key one shift of the resident tuple ids
// (a memmove; AddBatch's key work is only O(batch * log n)). Coalescing
// K concurrent requests into one batch amortizes those K-fold while
// adding at most `max_delay_ms` of latency: the classic group-commit
// trade.
//
// One writer thread owns all commits (the engine is single-writer /
// multi-reader); requesters park on a future. A batch commits as soon as
// either `max_batch_records` records are pending or `max_delay_ms` has
// elapsed since the OLDEST pending request arrived — so under light load
// a lone upsert waits the full deadline at worst, and under heavy load
// batches fill instantly and the deadline never binds.

#ifndef MERGEPURGE_SERVICE_BATCHER_H_
#define MERGEPURGE_SERVICE_BATCHER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "record/record.h"
#include "util/status.h"
#include "util/sync.h"

namespace mergepurge {

struct BatcherOptions {
  // Commit as soon as this many records are pending.
  size_t max_batch_records = 256;

  // Latency deadline: commit no later than this after the oldest pending
  // request arrived, even if the batch is small.
  double max_delay_ms = 2.0;
};

// One committed batch as produced by the CommitFn. Records of a batch
// land contiguously in the engine, so the tuple id of record i is
// `base_tid + i`; `merges` is the closure delta — every {survivor,
// absorbed} component-label union the batch caused among PRE-EXISTING
// components (new records' memberships are already visible through
// `labels`). A sharding coordinator replays these into its global
// union-find instead of re-pulling full label dumps.
struct BatchCommit {
  std::vector<uint32_t> labels;  // One entity label per record, in order.
  TupleId base_tid = 0;
  std::vector<std::pair<uint32_t, uint32_t>> merges;
};

// The per-request slice of a committed batch handed back to Submit
// callers: the request's own labels and tids (contiguous from
// `base_tid`), plus the WHOLE batch's merge delta — merge application
// is idempotent, so every rider of a coalesced batch may safely replay
// it.
struct UpsertSlice {
  std::vector<uint32_t> entities;
  TupleId base_tid = 0;
  std::vector<std::pair<uint32_t, uint32_t>> merges;
};

class UpsertBatcher {
 public:
  // `commit` admits one coalesced batch and returns the labels/tids/
  // merge delta. It runs exclusively on the batcher's writer thread.
  using CommitFn = std::function<Result<BatchCommit>(std::vector<Record>)>;

  UpsertBatcher(BatcherOptions options, CommitFn commit);

  // Drains on destruction if Drain() was not called.
  ~UpsertBatcher();

  UpsertBatcher(const UpsertBatcher&) = delete;
  UpsertBatcher& operator=(const UpsertBatcher&) = delete;

  // Enqueues the records and returns a future that resolves to their
  // slice of the committed batch (or the commit error). After Drain()
  // the future resolves immediately to an error.
  std::future<Result<UpsertSlice>> Submit(std::vector<Record> records);

  // Flushes everything pending, then stops the writer thread. Idempotent.
  void Drain();

  // Sizes (in records) of every committed batch, in commit order. The
  // exact serial replay schedule: feeding these slices of the admitted
  // record sequence to AddBatch reproduces the service's partition
  // (tests/contract_test.cc holds the service to that). Call after
  // Drain(); during operation it returns a snapshot.
  std::vector<size_t> committed_batch_sizes() const;

  uint64_t batches_committed() const;

 private:
  struct PendingUpsert {
    std::vector<Record> records;
    std::promise<Result<UpsertSlice>> promise;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  void WriterLoop();

  BatcherOptions options_;
  CommitFn commit_;

  mutable Mutex mu_{lockrank::kBatcher};
  CondVar pending_cv_;
  std::deque<PendingUpsert> pending_ MERGEPURGE_GUARDED_BY(mu_);
  size_t pending_records_ MERGEPURGE_GUARDED_BY(mu_) = 0;
  bool stop_ MERGEPURGE_GUARDED_BY(mu_) = false;
  bool drained_ MERGEPURGE_GUARDED_BY(mu_) = false;
  std::vector<size_t> batch_sizes_ MERGEPURGE_GUARDED_BY(mu_);

  std::thread writer_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_SERVICE_BATCHER_H_
