// FaultInjector: programmable fault points for chaos-testing the parallel
// and multi-pass pipelines. Library code consults a named fault point at
// the top of each unit of restartable work (fragment scan, pairs-file
// write); tests and the CLI arm points with deterministic failure
// schedules. With no schedule armed, a point check
// is a single relaxed atomic load — safe to leave in production paths.
//
// Schedules:
//   fail-once        first hit of the point fails, later hits succeed
//   fail-N-times     first N hits fail
//   straggle-for-ms  every hit sleeps for the given duration, then succeeds
//                    (models the paper's slow shared-nothing site)
//   random-rate      each hit fails with probability p, from a seeded RNG
//                    (deterministic across runs for a fixed seed)
//
// A spec string programs several points at once, e.g.
//   "parallel.fragment_scan=fail:2;io.pairs_write=rate:0.2:seed=7"
// (see ArmFromSpec for the grammar); the CLI exposes this as --faults=SPEC.

#ifndef MERGEPURGE_UTIL_FAULT_INJECTOR_H_
#define MERGEPURGE_UTIL_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/status.h"
#include "util/sync.h"

namespace mergepurge {

// Canonical fault-point names used by library code.
namespace fault_points {
inline constexpr char kFragmentScan[] = "parallel.fragment_scan";
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
  enum class Kind {
    kFailN,      // Fail the first `count` hits (count == 1 is fail-once).
    kStraggle,   // Sleep `straggle_ms` on every hit, then succeed.
    kRandom,     // Fail each hit with probability `rate` (seeded).
  };

  Kind kind = Kind::kFailN;
  uint64_t count = 1;     // kFailN.
  uint64_t skip = 0;      // kFailN: let this many hits through first.
  int straggle_ms = 0;    // kStraggle.
  double rate = 0.0;      // kRandom.
  uint64_t seed = 1;      // kRandom.

  static FaultSchedule FailOnce() { return FailN(1); }
  // Fails hits (skip, skip + n]; skip > 0 models a process that dies
  // mid-run after some work has already been persisted.
  static FaultSchedule FailN(uint64_t n, uint64_t skip = 0) {
    FaultSchedule s;
    s.kind = Kind::kFailN;
    s.count = n;
    s.skip = skip;
    return s;
  }
  static FaultSchedule StraggleMs(int ms) {
    FaultSchedule s;
    s.kind = Kind::kStraggle;
    s.straggle_ms = ms;
    return s;
  }
  static FaultSchedule RandomRate(double rate, uint64_t seed) {
    FaultSchedule s;
    s.kind = Kind::kRandom;
    s.rate = rate;
    s.seed = seed;
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

  // Parses and arms a multi-point spec:
  //   SPEC    := CLAUSE (';' CLAUSE)*
  //   CLAUSE  := POINT '=' SCHED
  //   SCHED   := 'fail' [':' N [':skip=' K]] (default N=1: fail-once;
  //                                           skip=K lets the first K
  //                                           hits through)
  //            | 'straggle' ':' MS
  //            | 'rate' ':' P [':seed=' S]   (default seed=1)
  // Unknown point names are accepted (code may gain points later); a
  // malformed clause is an InvalidArgument.
  Status ArmFromSpec(const std::string& spec);

  // Disarms every point and zeroes the counters.
  void Reset();

  // Consulted by library code. Returns OK when the point is disarmed or
  // the schedule says this hit survives; returns InjectedFault otherwise.
  // kStraggle schedules sleep, then return OK.
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
    Rng rng{1};
  };

  // Fast-path flag: true iff any point is armed.
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> faults_injected_{0};

  mutable Mutex mu_{lockrank::kFaultInjector};
  std::map<std::string, PointState> points_ MERGEPURGE_GUARDED_BY(mu_);
};

}  // namespace mergepurge

#endif  // MERGEPURGE_UTIL_FAULT_INJECTOR_H_
