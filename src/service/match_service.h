// MatchService: the concurrency façade that turns the single-threaded
// IncrementalMergePurge into a safely shared online engine.
//
// Concurrency model (documented in docs/service.md):
//   * single writer / multiple readers over a std::shared_mutex;
//   * ALL writes flow through one UpsertBatcher writer thread, which
//     takes the exclusive lock only for the AddBatch call itself plus
//     the O(batch) read of the new records' labels and merge delta —
//     queueing, coalescing, validation and the WAL append happen outside
//     it, so a Match never serializes behind the batching window or an
//     fsync, only behind the (short) commit critical section;
//   * Match takes the shared lock and uses the engine's read-only probe
//     (MatchOnly) and per-record labels (Label), so readers never
//     mutate engine state and any number run concurrently. The engine
//     needs no lock of its own.
//
// Equational theories batch rule statistics in plain (non-atomic)
// members, so instances must not be shared across threads. The service
// therefore takes a theory FACTORY and maintains a pool: each in-flight
// request leases an instance, and the lease returns it when done. Pool
// size ≈ peak concurrent requests (bounded by the server's worker count).

#ifndef MERGEPURGE_SERVICE_MATCH_SERVICE_H_
#define MERGEPURGE_SERVICE_MATCH_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "rules/equational_theory.h"
#include "service/batcher.h"
#include "service/snapshot.h"
#include "service/wal.h"
#include "util/sync.h"

namespace mergepurge {

// Crash durability for the resident engine (docs/durability.md). With a
// data_dir set, every committed batch is WAL-appended BEFORE it is
// applied — an upsert is acknowledged only after its batch is durable
// per the fsync policy — and a background snapshotter bounds WAL replay.
// Construction recovers: newest valid snapshot + WAL tail replay.
struct DurabilityOptions {
  // Empty: durability off (the PR-4 in-memory behaviour).
  std::string data_dir;
  FsyncPolicy fsync = FsyncPolicy::kGroup;
  // Snapshot after this many committed batches or this much time with
  // new state, whichever comes first.
  uint64_t snapshot_every_batches = 256;
  int snapshot_interval_ms = 1000;
  // Keep truncated-away WAL segments (CI's recovery-vs-replay diff).
  bool keep_wal = false;
  // Test hook: sleep this long on the recovery thread before replaying,
  // so tests can observe the kRecovering lifecycle state reliably.
  int recovery_delay_for_testing_ms = 0;
};

struct MatchServiceOptions {
  // Keys / window / conditioning for the resident incremental engine.
  MergePurgeOptions engine;
  BatcherOptions batcher;
  DurabilityOptions durability;
};

// What startup recovery found (run report + stats op).
struct RecoveryInfo {
  bool snapshot_loaded = false;
  uint64_t snapshot_seq = 0;
  uint64_t snapshot_records = 0;
  uint64_t batches_replayed = 0;
  uint64_t records_replayed = 0;
  uint64_t truncated_bytes = 0;
  uint64_t last_seq = 0;  // Applied sequence after recovery.
  double recovery_ms = 0.0;
};

class MatchService {
 public:
  // Service lifecycle, observable without any lock (the health op reads
  // it while recovery still holds the engine write lock). Durability on:
  // the service constructs in kRecovering and a background thread
  // replays snapshot + WAL tail; it transitions to kServing (or kFailed
  // on a recovery error) exactly once. Durability off: kServing from
  // birth. Draining is a server-level state (the socket layer owns the
  // drain flag), not a service one.
  enum class Lifecycle { kRecovering, kServing, kFailed };

  // The theory factory is called whenever the lease pool is empty;
  // instances are reused across requests but never across concurrent ones.
  MatchService(MatchServiceOptions options, TheoryFactory theory_factory);
  ~MatchService();

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  struct MatchOutcome {
    // Entity label of the best (smallest-label) matched component, or
    // nullopt when nothing matched.
    std::optional<uint32_t> entity;
    // Matched tuple ids, ascending.
    std::vector<TupleId> matches;
    // Distinct entity labels of the matches, ascending. More than one
    // means the probe bridges components the engine has not (yet) merged.
    std::vector<uint32_t> entities;
  };

  // Read-only probe; never admits the record. Safe from any thread.
  Result<MatchOutcome> Match(const Record& record) const;

  struct UpsertOutcome {
    // One entity label per submitted record, in submission order.
    std::vector<uint32_t> entities;
    // New matching pairs discovered by the COMMITTED BATCH containing
    // this request (batch-level, not per-request: coalescing makes a
    // per-request attribution ill-defined).
    uint64_t new_pairs = 0;
    // Tuple id of this request's first record; the request's records
    // land contiguously, so record i has tid `base_tid + i`.
    TupleId base_tid = 0;
    // {survivor, absorbed} component-label unions caused by the
    // containing batch (whole-batch delta; idempotent to replay). A
    // sharding coordinator folds these into its global closure.
    std::vector<std::pair<uint32_t, uint32_t>> merges;
  };

  // Admits records via the batcher; blocks until their batch commits
  // (bounded by the batcher deadline plus commit time).
  Result<UpsertOutcome> Upsert(std::vector<Record> records);

  struct Stats {
    uint64_t records = 0;
    uint64_t entities = 0;
    uint64_t pairs = 0;
  };
  Stats GetStats() const;

  // --- Durability surface (no-ops / zeros when data_dir is unset). ---

  // Current lifecycle state; never blocks. Transitions are one-way
  // (kRecovering -> kServing | kFailed), so a caller that observed
  // kServing can rely on it.
  Lifecycle lifecycle() const {
    return lifecycle_.load(std::memory_order_acquire);
  }
  static const char* LifecycleName(Lifecycle lifecycle);

  // Blocks until startup recovery finishes (returns immediately when
  // durability is off) and returns its status. The service must not
  // serve upserts when this is non-OK (a served upsert could be
  // re-lost).
  Status WaitForRecovery() const;

  // Recovery or WAL-open failure; blocks until recovery finishes.
  Status init_status() const { return WaitForRecovery(); }

  struct DurabilityInfo {
    bool enabled = false;
    uint64_t applied_seq = 0;   // Last sequence applied to the engine.
    uint64_t snapshot_seq = 0;  // Last durably snapshotted sequence.
    // WAL fail-stop state: false while healthy; once true every further
    // commit fails and wal_error carries the latched first error.
    bool wal_failed = false;
    std::string wal_error;
    uint64_t wal_open_segment_bytes = 0;
    // ms since the last durable save by THIS process; -1 before one.
    double snapshot_age_ms = -1.0;
    RecoveryInfo recovery;
  };
  // Blocks on the engine reader lock — call only when serving (the
  // health op reports a reduced document while recovering).
  DurabilityInfo GetDurability() const;

  // Synchronous snapshot of the current state (tests, drain path).
  Status SnapshotNow();

  // Test hook: makes teardown behave like a crash — Drain skips the
  // final snapshot and flushes nothing — so a second service over the
  // same data dir exercises the recovery path in-process.
  void SimulateCrashForTesting() {
    crashed_.store(true, std::memory_order_relaxed);
  }

  // Flushes pending upserts and stops the writer thread. Further Upserts
  // fail; Match/GetStats keep working on the frozen state. Idempotent.
  void Drain();

  // --- Post-drain inspection (final reports, contract tests). ---

  // Copy of all admitted records in admission order.
  Dataset CopyRecords() const;

  // Entity partition over the admitted records.
  std::vector<uint32_t> ComponentLabels() const;

  // Committed batch sizes in commit order (see UpsertBatcher).
  std::vector<size_t> committed_batch_sizes() const;

  uint64_t batches_committed() const {
    return batcher_->batches_committed();
  }

 private:
  class TheoryLease;

  // Scoped shared (reader) acquisition of engine_mu_ that honors the
  // write-preference gate: yields while a writer is waiting, then takes
  // the shared lock for its lifetime.
  class MERGEPURGE_SCOPED_CAPABILITY GatedReaderLock {
   public:
    explicit GatedReaderLock(const MatchService& service)
        MERGEPURGE_ACQUIRE_SHARED(service.engine_mu_);
    ~GatedReaderLock() MERGEPURGE_RELEASE();

    GatedReaderLock(const GatedReaderLock&) = delete;
    GatedReaderLock& operator=(const GatedReaderLock&) = delete;

   private:
    const MatchService& service_;
  };

  // Batcher commit hook: the only writer of engine_. The batch is
  // validated first, so a rejected batch is never logged; with
  // durability on it is then WAL-committed BEFORE the engine lock is
  // taken — write-ahead ordering, and the (possibly fsyncing) append
  // never blocks readers.
  Result<BatchCommit> CommitBatch(std::vector<Record> records);

  // Startup recovery: snapshot restore + WAL tail replay, then opens
  // the WAL for appends and starts the snapshotter. A logged batch the
  // engine rejects fails recovery, naming its WAL seq. Runs on the
  // recovery thread; RunRecovery wraps it with the lifecycle
  // transition and completion signal.
  Status InitDurability();
  void RunRecovery();

  MatchServiceOptions options_;
  TheoryFactory theory_factory_;

  mutable SharedMutex engine_mu_{lockrank::kEngine};
  // Write-preference gate. glibc's rwlock is reader-preferring: a steady
  // stream of Match calls can starve the batcher's writer thread
  // indefinitely. The writer raises this before blocking on the
  // exclusive lock; readers spin-yield while it is raised, so in-flight
  // reads finish but new ones queue behind the commit.
  mutable std::atomic<int> writer_waiting_{0};
  // Readers hold engine_mu_ shared and stick to the engine's const
  // surface (MatchOnly, Label); AddBatch runs only under the exclusive
  // lock, on the batcher's writer thread.
  IncrementalMergePurge engine_ MERGEPURGE_GUARDED_BY(engine_mu_);

  // Sequence of the last batch applied to the engine (== the WAL
  // sequence it was logged under). Only meaningful with durability on.
  uint64_t applied_seq_ MERGEPURGE_GUARDED_BY(engine_mu_) = 0;

  // new_pairs of the most recent committed batch (read by Upsert after
  // its future resolves; racy reads across batches are acceptable for a
  // batch-level diagnostic and documented as such).
  std::atomic<uint64_t> last_batch_new_pairs_{0};

  // --- Durability (null / default when data_dir is unset). ---
  // kServing from birth without durability; flipped by the recovery
  // thread (one-way) with durability on.
  std::atomic<Lifecycle> lifecycle_{Lifecycle::kServing};
  mutable Mutex recovery_mu_{lockrank::kRecovery};
  mutable CondVar recovery_cv_;
  bool recovery_done_ MERGEPURGE_GUARDED_BY(recovery_mu_) = true;
  Status init_status_ MERGEPURGE_GUARDED_BY(recovery_mu_);
  // Written by the recovery thread before lifecycle_ leaves
  // kRecovering; read-only once serving.
  RecoveryInfo recovery_;
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<Snapshotter> snapshotter_;
  std::thread recovery_thread_;
  std::atomic<bool> crashed_{false};

  // Leased under the engine lock (CommitBatch, Match): engine before
  // theory is a declared hierarchy edge, not an accident.
  mutable Mutex theory_mu_ MERGEPURGE_ACQUIRED_AFTER(engine_mu_){
      lockrank::kTheoryPool};
  mutable std::vector<std::unique_ptr<EquationalTheory>> theory_pool_
      MERGEPURGE_GUARDED_BY(theory_mu_);

  std::unique_ptr<UpsertBatcher> batcher_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_SERVICE_MATCH_SERVICE_H_
