// FaultInjector: programmable crash points for the code that writes
// on-disk state. Library code consults a named fault point just before a
// write that a crash could interrupt (a pass's pairs file, a WAL append
// or fsync, a snapshot write or rename); tests arm points with a
// deterministic schedule that fails the hits (skip, skip + n]. With no
// schedule armed, a point check is a single atomic load, safe to leave
// in production paths.

#ifndef MERGEPURGE_UTIL_FAULT_INJECTOR_H_
#define MERGEPURGE_UTIL_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "util/status.h"
#include "util/sync.h"

namespace mergepurge {

// Canonical fault-point names used by library code.
namespace fault_points {
inline constexpr char kPairsWrite[] = "io.pairs_write";
// Durability crash points (service WAL + snapshot paths). Each models
// the process dying at that instant: a tripped point leaves partial
// on-disk state exactly as a real crash would (torn WAL record, partial
// snapshot temp file, un-renamed temp) and the writer goes fail-stop.
inline constexpr char kWalAppend[] = "wal-append";
inline constexpr char kWalFsync[] = "wal-fsync";
inline constexpr char kSnapshotWrite[] = "snapshot-write";
inline constexpr char kSnapshotRename[] = "snapshot-rename";
}  // namespace fault_points

struct FaultSchedule {
  uint64_t count = 1;  // Hits to fail.
  uint64_t skip = 0;   // Hits to let through first.

  // Fails hits (skip, skip + n]; skip > 0 models a process that dies
  // mid-run after some work has already been persisted.
  static FaultSchedule FailN(uint64_t n, uint64_t skip = 0) {
    FaultSchedule s;
    s.count = n;
    s.skip = skip;
    return s;
  }
};

class FaultInjector {
 public:
  FaultInjector() = default;

  // The process-wide instance library code consults. Tests that need
  // isolation can construct their own and pass it down explicitly.
  static FaultInjector& Global();

  // Arms `point` with a schedule (replacing any previous one).
  void Arm(const std::string& point, FaultSchedule schedule);

  // Disarms every point and zeroes the counters.
  void Reset();

  // Consulted by library code. Returns OK when the point is disarmed or
  // the schedule says this hit survives; returns InjectedFault otherwise.
  Status OnPoint(const char* point);

  // Total faults injected (all points) since the last Reset.
  uint64_t faults_injected() const {
    return faults_injected_.load(std::memory_order_relaxed);
  }

  // Hits observed at a specific point since the last Reset (armed points
  // only; disarmed points are not tracked).
  uint64_t HitCount(const std::string& point) const;

 private:
  struct PointState {
    FaultSchedule schedule;
    uint64_t hits = 0;
    uint64_t failures_delivered = 0;
  };

  // Fast-path flag: true iff any point is armed.
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> faults_injected_{0};

  mutable Mutex mu_{lockrank::kFaultInjector};
  std::map<std::string, PointState> points_ MERGEPURGE_GUARDED_BY(mu_);
};

}  // namespace mergepurge

#endif  // MERGEPURGE_UTIL_FAULT_INJECTOR_H_
