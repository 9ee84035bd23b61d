// Runtime lock-order validator, compiled into every build.
//
// Each thread tracks the ranks of the locks it holds in acquisition
// order. OnAcquire aborts the process — with both lock names, from
// util/lock_ranks.h — when the new rank is not strictly greater than
// every held rank, i.e. the moment the hierarchy is violated, whether or
// not the schedule would have deadlocked this run. Like the WAL writer's
// latch this is fail-stop: a shipped server that inverts two locks dies
// with both names rather than risk a deadlock later.

#include "util/sync.h"

#include <cstdio>
#include <cstdlib>

namespace mergepurge {
namespace lockorder {

namespace {

// Deep enough for every legal chain (the full hierarchy is 18 ranks) and
// fixed-size so the hot path never allocates. Overflow means runaway
// recursive locking and aborts too.
constexpr int kMaxHeld = 32;

thread_local int t_held[kMaxHeld];
thread_local int t_depth = 0;

[[noreturn]] void Die(const char* what, int held, int acquiring) {
  std::fprintf(stderr,
               "lockorder: %s: acquiring %s (rank %d) while holding %s "
               "(rank %d); hierarchy is src/util/lock_ranks.h\n",
               what, lockrank::LockRankName(acquiring), acquiring,
               lockrank::LockRankName(held), held);
  std::abort();
}

void Push(int rank) {
  if (t_depth >= kMaxHeld) {
    std::fprintf(stderr, "lockorder: more than %d locks held at once\n",
                 kMaxHeld);
    std::abort();
  }
  t_held[t_depth++] = rank;
}

}  // namespace

void OnAcquire(int rank) {
  if (rank == lockrank::kUnranked) return;
  for (int i = 0; i < t_depth; ++i) {
    if (t_held[i] >= rank) Die("lock-order inversion", t_held[i], rank);
  }
  Push(rank);
}

void OnTryAcquire(int rank) {
  if (rank == lockrank::kUnranked) return;
  Push(rank);
}

void OnRelease(int rank) {
  if (rank == lockrank::kUnranked) return;
  // Non-LIFO release is legal (MutexLock::Unlock mid-scope while another
  // scoped lock is open): drop the most recent matching entry.
  for (int i = t_depth - 1; i >= 0; --i) {
    if (t_held[i] != rank) continue;
    for (int j = i; j + 1 < t_depth; ++j) t_held[j] = t_held[j + 1];
    --t_depth;
    return;
  }
  // Releasing a rank that was never recorded: an unlock not paired with
  // a tracked lock (corruption or a bypassed hook) — loud, not silent.
  std::fprintf(stderr, "lockorder: release of %s (rank %d) not held\n",
               lockrank::LockRankName(rank), rank);
  std::abort();
}

}  // namespace lockorder
}  // namespace mergepurge
