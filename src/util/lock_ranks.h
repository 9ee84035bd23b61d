// The process-wide lock hierarchy, as numbers. This header is its only
// copy.
//
// Every Mutex/SharedMutex is constructed with one of the ranks below
// (there is no default constructor, so an unranked lock does not
// compile). A thread may only acquire a lock whose rank is STRICTLY
// GREATER than every lock it already holds, and the runtime validator
// (util/sync.cc) aborts the process on the first acquire that breaks
// this, in every build. Rank order is the whole policy: lower rank =
// outer lock, any rank-increasing nesting is legal, and two locks that
// share a rank can never be held together.
//
// Ranks are spaced by 10 so a new lock can slot between two existing
// ones without renumbering the world. Each line names the lock and what
// it guards.

#ifndef MERGEPURGE_UTIL_LOCK_RANKS_H_
#define MERGEPURGE_UTIL_LOCK_RANKS_H_

namespace mergepurge {
namespace lockrank {

// Invisible to the validator. Only tests may use it (lockcheck's
// unranked-lock rule rejects it everywhere else).
inline constexpr int kUnranked = -1;

// --- Service front end (outermost) ------------------------------------------
// Server::conn_mu_: the open connection fd set.
inline constexpr int kServerConn = 10;
// UpsertBatcher::mu_: the pending upsert queue; released across commits.
inline constexpr int kBatcher = 20;
// MatchService::engine_mu_ (shared): the resident incremental engine.
inline constexpr int kEngine = 30;
// MatchService::recovery_mu_: recovery completion flag + init status.
inline constexpr int kRecovery = 40;
// MatchService::theory_mu_: the equational-theory lease pool.
inline constexpr int kTheoryPool = 50;

// --- Durability --------------------------------------------------------------
// WalWriter::mu_: active WAL segment, sequence, fail-stop latch.
inline constexpr int kWal = 70;
// Snapshotter::mu_: snapshot scheduler state; released across SaveOnce.
inline constexpr int kSnapshotter = 80;

// --- Shard coordinator -------------------------------------------------------
// CoordService::routing_mu_ (router + boundary bands), closure_mu_
// (global closure + label spaces) and pool_mu_ (shard connection
// pools). One shared rank, so the validator rejects nesting any two of
// them in either direction.
inline constexpr int kCoordLeaf = 90;

// --- Parallel batch engine ---------------------------------------------------
// ResilientRunner::RunContext::mu: per-run task states and counters.
inline constexpr int kResilientRun = 100;
// ThreadPool::mu_: the task queue; released while a task runs.
inline constexpr int kThreadPool = 110;

// --- Cross-cutting leaves (innermost) ----------------------------------------
// FaultInjector::mu_: armed fault-point schedules.
inline constexpr int kFaultInjector = 120;
// SnapshotRing::mu_: timestamped metric-snapshot ring.
inline constexpr int kSnapshotRing = 130;
// ProgressReporter::mu_: status-line paint state.
inline constexpr int kProgress = 140;
// TraceRecorder::mu_: recorded span list.
inline constexpr int kTrace = 150;
// SignalDrain::mu_: registered drain callbacks.
inline constexpr int kDrain = 160;
// MetricsRegistry::mu_: registration maps (values are lock-free atomics).
inline constexpr int kMetricsRegistry = 170;
// LogMutex() in logging.cc: stderr log-line serialization.
inline constexpr int kLog = 180;

// Human-readable name for validator abort messages, or "?" for a rank
// this header does not define.
inline constexpr const char* LockRankName(int rank) {
  switch (rank) {
    case kServerConn: return "Server::conn_mu_";
    case kBatcher: return "UpsertBatcher::mu_";
    case kEngine: return "MatchService::engine_mu_";
    case kRecovery: return "MatchService::recovery_mu_";
    case kTheoryPool: return "MatchService::theory_mu_";
    case kWal: return "WalWriter::mu_";
    case kSnapshotter: return "Snapshotter::mu_";
    case kCoordLeaf: return "CoordService leaf (routing/closure/pool)";
    case kResilientRun: return "ResilientRunner::RunContext::mu";
    case kThreadPool: return "ThreadPool::mu_";
    case kFaultInjector: return "FaultInjector::mu_";
    case kSnapshotRing: return "SnapshotRing::mu_";
    case kProgress: return "ProgressReporter::mu_";
    case kTrace: return "TraceRecorder::mu_";
    case kDrain: return "SignalDrain::mu_";
    case kMetricsRegistry: return "MetricsRegistry::mu_";
    case kLog: return "LogMutex";
    default: return "?";
  }
}

}  // namespace lockrank
}  // namespace mergepurge

#endif  // MERGEPURGE_UTIL_LOCK_RANKS_H_
