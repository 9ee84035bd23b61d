// Snapshots of the resident IncrementalMergePurge state, so the WAL can
// be truncated and recovery is O(tail) instead of O(history).
//
// A snapshot serializes the engine's conditioned record store and its
// discovered pair set as of applied sequence S. That pair is sufficient:
// IncrementalMergePurge::Restore rebuilds the per-key sorted orders by a
// full sort (provably identical to the incrementally merged orders — the
// comparator is a total order on (key, tuple id)) and the union-find
// from the pairs (canonical labeling is union-order independent), so
// restore(snapshot at S) + replay(WAL records with seq > S) reaches a
// closure byte-identical to the original run.
//
// On-disk protocol (the checkpoint.cc pattern, hardened):
//   1. write <dir>/snap-<16-hex S>.mps.tmp in full,
//   2. fsync the temp file,
//   3. rename to snap-<S>.mps and fsync the directory,
//   4. atomically rewrite <dir>/snapshot.manifest naming the new file —
//      the manifest is the commit record; a crash between 3 and 4
//      leaves a valid orphan snapshot that loading falls back to.
//
// File format ("MPSNAP1\n" header, little-endian integers):
//   u64 body_len | u32 crc32(body) | body
//   body: u64 seq | u64 config_digest
//         u32 field_count, per field: u32 len | bytes     (schema)
//         u64 record_count, per record: u32 field_count,
//             per field: u32 len | bytes
//         u64 pair_count, per pair: u32 lo | u32 hi       (sorted)
//
// The config digest (EngineConfigDigest) covers keys/window/method/
// conditioning: restarting with different engine parameters invalidates
// the snapshot (and the WAL — replay under new parameters would not
// reproduce the acknowledged closure, so recovery refuses instead).

#ifndef MERGEPURGE_SERVICE_SNAPSHOT_H_
#define MERGEPURGE_SERVICE_SNAPSHOT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "core/merge_purge.h"
#include "core/pair_set.h"
#include "record/dataset.h"
#include "util/fault_injector.h"
#include "util/status.h"
#include "util/sync.h"

namespace mergepurge {

// Engine-parameter identity hashed into snapshots (FNV-1a over method,
// window, conditioning flags, and every KeySpecDigest).
uint64_t EngineConfigDigest(const MergePurgeOptions& options);

// A copy of the durable engine state at one applied sequence.
struct SnapshotState {
  uint64_t seq = 0;
  Dataset records;
  PairSet pairs;
};

std::string SnapshotFileName(uint64_t seq);

// Writes `state` durably under `dir` (protocol above). Consults the
// snapshot-write / snapshot-rename crash points.
Status SaveSnapshot(const std::string& dir, uint64_t config_digest,
                    const SnapshotState& state,
                    FaultInjector* faults = &FaultInjector::Global());

// Loads the newest valid snapshot: the manifest's file when it passes
// CRC + config checks, else the highest-seq snap-*.mps that does
// (a crash between rename and manifest rewrite leaves exactly this
// orphan). NotFound when the directory holds no usable snapshot.
Result<SnapshotState> LoadNewestSnapshot(const std::string& dir,
                                         uint64_t config_digest);

// Background snapshot scheduler. Owns one thread that wakes every
// `interval_ms` or when `every_batches` commits accumulated (whichever
// first) and, when there is new state, copies it via `copy` and saves.
// A failed save is non-fatal — the WAL still has everything — and is
// counted in service.snapshot.failures; truncation only follows a
// successful save.
class Snapshotter {
 public:
  struct Options {
    std::string dir;
    uint64_t config_digest = 0;
    // Snapshot when this many batches committed since the last one...
    uint64_t every_batches = 256;
    // ...or this much time passed with at least one new batch.
    int interval_ms = 1000;
    // Skip WAL truncation after a save (CI keeps the full log to diff
    // recovery against serial replay; see tools/mergepurge_walcheck).
    bool keep_wal = false;
  };

  // `copy` snapshots current engine state (under the service's reader
  // lock); returns false when state hasn't advanced past the last save.
  // `truncate` is called with the saved seq after a durable save.
  using CopyFn = std::function<bool(SnapshotState*)>;
  using TruncateFn = std::function<void(uint64_t seq)>;

  Snapshotter(Options options, CopyFn copy, TruncateFn truncate);
  ~Snapshotter();

  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  void Start();
  // One batch committed; wakes the thread when the threshold is hit.
  void NotifyBatch();
  // Synchronous snapshot of current state (drain path / tests). Returns
  // the save status; OK with no work when state hasn't advanced.
  Status SnapshotNow();
  // Stops the thread; with `final_snapshot`, saves once more first.
  void Stop(bool final_snapshot);

  uint64_t last_saved_seq() const;

  // Milliseconds since the last durable save (this process; loaded
  // snapshots from a previous run don't count). Negative when no save
  // has happened yet — mirrored into service.snapshot.age_ms by the
  // health op, which reports -1 the same way.
  double ms_since_last_save() const;

 private:
  void Loop();
  // Copy + save + truncate; resets the batch counter.
  Status SaveOnce() MERGEPURGE_EXCLUDES(mu_, save_mu_);

  const Options options_;
  const CopyFn copy_;
  const TruncateFn truncate_;

  // Held by SaveOnce: the loop and SnapshotNow write the same temporary
  // files, so two concurrent saves would rename each other's away.
  Mutex save_mu_{lockrank::kSnapshotSave};
  mutable Mutex mu_{lockrank::kSnapshotter};
  CondVar cv_;
  bool stop_ MERGEPURGE_GUARDED_BY(mu_) = false;
  uint64_t batches_since_save_ MERGEPURGE_GUARDED_BY(mu_) = 0;
  uint64_t last_saved_seq_ MERGEPURGE_GUARDED_BY(mu_) = 0;
  bool saved_once_ MERGEPURGE_GUARDED_BY(mu_) = false;
  std::chrono::steady_clock::time_point last_saved_at_
      MERGEPURGE_GUARDED_BY(mu_);
  bool started_ MERGEPURGE_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_SERVICE_SNAPSHOT_H_
