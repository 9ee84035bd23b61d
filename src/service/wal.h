// Write-ahead log for the online match/upsert service.
//
// Every committed UpsertBatcher group-commit is appended as one WAL
// record BEFORE the batch is applied to the resident engine, so a crash
// after the append loses nothing that was acknowledged. Because the
// engine's closure depends only on the multiset of records and the
// total (key, tuple-id) order — not on batch boundaries — replaying the
// logged batches through IncrementalMergePurge::AddBatch reproduces a
// byte-identical closure (tests/durability_test.cc proves this per
// crash point).
//
// On-disk layout (all integers little-endian):
//   <dir>/wal-<16-hex first_seq>.log
//     "MPWAL1\n"                                segment header
//     repeated records:
//       u32 payload_len | u32 crc32(payload) | payload
//     payload:
//       u64 seq | u32 record_count
//       per record: u32 field_count, per field: u32 len | bytes
//
// `seq` numbers batches contiguously from 1. A torn tail (partial
// record from a crash mid-append) fails the length or CRC check;
// recovery truncates the segment back to the last whole record and
// reports the cut bytes. Recovery also stops at the first sequence gap,
// so a record that survived *after* a torn one (impossible for a
// fail-stop writer, but possible with byte-level corruption) can never
// be replayed out of order.
//
// Fsync policy:
//   always  fsync after every append          (zero acknowledged loss)
//   group   fsync once per group-commit batch (default; the batcher
//           already coalesces, so this is one fsync per commit too, but
//           the policy point is kept distinct for future sub-batch use)
//   none    never fsync; the OS page cache decides (fast, test-only)
//
// Locking: WalWriter::mu_ has rank lockrank::kWal (util/lock_ranks.h);
// CommitBatch holds no other lock while appending.

#ifndef MERGEPURGE_SERVICE_WAL_H_
#define MERGEPURGE_SERVICE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "record/record.h"
#include "util/fault_injector.h"
#include "util/status.h"
#include "util/sync.h"

namespace mergepurge {

enum class FsyncPolicy { kAlways, kGroup, kNone };

const char* FsyncPolicyName(FsyncPolicy policy);
Result<FsyncPolicy> ParseFsyncPolicy(const std::string& name);

// One logged group-commit: the batch's records exactly as submitted
// (pre-conditioning; the engine re-conditions on replay just as it did
// on the original commit).
struct WalBatch {
  uint64_t seq = 0;
  std::vector<Record> records;
};

// Appender. Single-owner: the batcher's writer thread calls Commit; the
// snapshotter thread calls RemoveSegmentsThrough; mu_ serializes them.
class WalWriter {
 public:
  explicit WalWriter(FsyncPolicy policy,
                     FaultInjector* faults = &FaultInjector::Global())
      : policy_(policy), faults_(faults) {}
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Opens (creates) the active segment <dir>/wal-<next_seq>.log. The
  // directory must exist. `next_seq` is the sequence the next Commit
  // will write (last recovered seq + 1; 1 on a fresh directory).
  Status Open(const std::string& dir, uint64_t next_seq);

  // Appends one batch record and applies the fsync policy. On success
  // the batch is durable per policy and the internal sequence advances.
  // On ANY failure (including injected crash points) the writer goes
  // fail-stop: every later Commit fails immediately without touching
  // the file, exactly like a crashed process — the log never gains a
  // record after a torn one. Returns the sequence assigned.
  Result<uint64_t> Commit(const std::vector<Record>& records);

  // Called after a snapshot at `seq` is durable. Rotates to a fresh
  // segment when the active one holds records covered by the snapshot
  // (so it becomes removable), then deletes every inactive segment
  // whose records all have seq <= `seq`. A segment named f is covered
  // through g-1 where g is the next segment's name, so nothing with a
  // live record is ever deleted. Returns the number of segments
  // removed.
  Result<uint64_t> TruncateThrough(uint64_t seq);

  // Closes the active segment file (final fsync under always/group).
  void Close();

  uint64_t next_seq() const;

  // Fail-stop state: OK while healthy, the latched first error after a
  // failed append or rotation (surfaced by the health admin op).
  Status health() const;

  // Bytes in the active (not yet truncated-away) segment, header
  // included. Mirrored into the service.wal.open_segment_bytes gauge.
  uint64_t open_segment_bytes() const;

 private:
  Status AppendLocked(const std::vector<Record>& records)
      MERGEPURGE_REQUIRES(mu_);

  const FsyncPolicy policy_;
  FaultInjector* const faults_;

  mutable Mutex mu_{lockrank::kWal};
  std::string dir_ MERGEPURGE_GUARDED_BY(mu_);
  std::string active_path_ MERGEPURGE_GUARDED_BY(mu_);
  uint64_t active_first_seq_ MERGEPURGE_GUARDED_BY(mu_) = 0;
  int fd_ MERGEPURGE_GUARDED_BY(mu_) = -1;
  uint64_t next_seq_ MERGEPURGE_GUARDED_BY(mu_) = 1;
  uint64_t open_segment_bytes_ MERGEPURGE_GUARDED_BY(mu_) = 0;
  // Fail-stop latch: first error sticks (see Commit).
  Status broken_ MERGEPURGE_GUARDED_BY(mu_);
};

// Recovery-side statistics (surfaced as service.recovery.* metrics and
// the run report's recovery section).
struct WalReadStats {
  uint64_t segments_scanned = 0;
  uint64_t batches_read = 0;
  uint64_t records_read = 0;
  // Bytes cut from torn/corrupt segment tails (the file is truncated in
  // place so a later writer never appends past garbage).
  uint64_t truncated_bytes = 0;
  uint64_t last_seq = 0;  // Highest contiguous seq recovered.
};

// Reads every batch with seq > after_seq from the WAL segments in
// `dir`, in sequence order. Torn/corrupt tails are truncated in place;
// a sequence gap stops recovery at the last contiguous record. A
// missing directory or no segments is OK (empty result).
Result<std::vector<WalBatch>> ReadWalForRecovery(const std::string& dir,
                                                 uint64_t after_seq,
                                                 WalReadStats* stats);

// "wal-<16-hex seq>.log"; exposed for tests and the walcheck tool.
std::string WalSegmentFileName(uint64_t first_seq);

}  // namespace mergepurge

#endif  // MERGEPURGE_SERVICE_WAL_H_
