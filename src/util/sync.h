// Machine-checked locking for the concurrent core.
//
// Every lock in this codebase is one of the capability-annotated wrappers
// below; every field a lock protects says so with MERGEPURGE_GUARDED_BY,
// and every function that expects a lock already held says so with
// MERGEPURGE_REQUIRES. Under clang the annotations are Thread Safety
// Analysis capabilities, so `-Wthread-safety -Werror` turns each lock
// invariant into a compile error when violated (tools/ci.sh runs that
// build when clang is available); under gcc they compile away to nothing
// and the wrappers are zero-cost forwarding shims over the std types.
//
// The companion linter, tools/lockcheck.py, forbids new naked
// std::mutex / std::lock_guard / bare .lock()/.unlock() / detached
// threads outside this header, so the annotated vocabulary stays the
// only way to synchronize. Conventions are documented in
// docs/concurrency.md; the lock hierarchy is util/lock_ranks.h.
//
// Vocabulary:
//   Mutex            exclusive capability over std::mutex
//   SharedMutex      reader/writer capability over std::shared_mutex
//   CondVar          condition variable bound to a Mutex at each wait
//   MutexLock        scoped exclusive acquire (with early Unlock/relock)
//   WriterLock       scoped exclusive acquire of a SharedMutex
//   ReaderLock       scoped shared acquire of a SharedMutex
//
// CondVar deliberately has no predicate overload: a predicate lambda is
// analyzed as a separate function, outside the waiting scope, so clang
// cannot see that the lock is held inside it. Write the loop instead:
//
//   MutexLock lock(mu_);
//   while (!done_) cv_.Wait(mu_);         // done_ GUARDED_BY(mu_)

#ifndef MERGEPURGE_UTIL_SYNC_H_
#define MERGEPURGE_UTIL_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/lock_ranks.h"

// --- Annotation macros -------------------------------------------------------
// Expand to clang Thread Safety Analysis attributes when the compiler
// understands them (clang with -Wthread-safety); expand to nothing
// everywhere else, so gcc builds are untouched.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define MERGEPURGE_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef MERGEPURGE_THREAD_ANNOTATION
#define MERGEPURGE_THREAD_ANNOTATION(x)  // Not clang: no-op.
#endif

// A type that acts as a lock (a "capability" in clang's terms).
#define MERGEPURGE_CAPABILITY(x) \
  MERGEPURGE_THREAD_ANNOTATION(capability(x))

// An RAII type whose lifetime equals a critical section.
#define MERGEPURGE_SCOPED_CAPABILITY \
  MERGEPURGE_THREAD_ANNOTATION(scoped_lockable)

// Field annotations: the named lock protects this field / the data the
// pointer or reference field points at.
#define MERGEPURGE_GUARDED_BY(x) MERGEPURGE_THREAD_ANNOTATION(guarded_by(x))
#define MERGEPURGE_PT_GUARDED_BY(x) \
  MERGEPURGE_THREAD_ANNOTATION(pt_guarded_by(x))

// Lock-ordering edges, stated on the Mutex member itself.
#define MERGEPURGE_ACQUIRED_BEFORE(...) \
  MERGEPURGE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define MERGEPURGE_ACQUIRED_AFTER(...) \
  MERGEPURGE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Function preconditions: the caller must hold the capability
// (exclusively / at least shared) before calling.
#define MERGEPURGE_REQUIRES(...) \
  MERGEPURGE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define MERGEPURGE_REQUIRES_SHARED(...) \
  MERGEPURGE_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// Function effects: acquires / releases the capability.
#define MERGEPURGE_ACQUIRE(...) \
  MERGEPURGE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define MERGEPURGE_ACQUIRE_SHARED(...) \
  MERGEPURGE_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define MERGEPURGE_RELEASE(...) \
  MERGEPURGE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define MERGEPURGE_RELEASE_SHARED(...) \
  MERGEPURGE_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define MERGEPURGE_TRY_ACQUIRE(...) \
  MERGEPURGE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// The function must NOT be called with the capability held (anti-deadlock
// for functions that acquire it themselves).
#define MERGEPURGE_EXCLUDES(...) \
  MERGEPURGE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// The function returns a reference to the named capability.
#define MERGEPURGE_RETURN_CAPABILITY(x) \
  MERGEPURGE_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch — every use must carry a lockcheck allowlist comment
// explaining why the analysis cannot see the invariant.
#define MERGEPURGE_NO_THREAD_SAFETY_ANALYSIS \
  MERGEPURGE_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace mergepurge {

// --- Runtime lock-order validation -------------------------------------------
// Compiled into every build. Each thread keeps a stack of the ranks it
// holds, and OnAcquire aborts the process if the new lock's rank is not
// strictly greater than every held rank (util/lock_ranks.h). Rank order
// is the whole policy: any rank-increasing nesting is legal, and two
// locks of equal rank can never be held together. Locks constructed
// with lockrank::kUnranked (tests only) are invisible to the validator.

namespace lockorder {
// Checks rank order against the caller's held stack, then records the
// acquire. Called BEFORE blocking on the underlying primitive so an
// inversion aborts deterministically instead of only when it deadlocks.
void OnAcquire(int rank);
// Records a successful try-acquire WITHOUT the order check: a try-lock
// never blocks, so out-of-rank try-acquisition cannot deadlock.
void OnTryAcquire(int rank);
// Pops the (most recent) record of `rank` from the held stack.
void OnRelease(int rank);
}  // namespace lockorder

// --- Annotated lock types ----------------------------------------------------

// Exclusive lock. Prefer MutexLock over manual Lock()/Unlock() pairs.
// There is no default constructor: every lock names its lockrank::
// constant (util/lock_ranks.h), so an unranked lock does not compile.
class MERGEPURGE_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(int rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MERGEPURGE_ACQUIRE() {
    lockorder::OnAcquire(rank_);
    mu_.lock();
  }
  void Unlock() MERGEPURGE_RELEASE() {
    mu_.unlock();
    lockorder::OnRelease(rank_);
  }
  bool TryLock() MERGEPURGE_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lockorder::OnTryAcquire(rank_);
    return true;
  }

  int rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const int rank_;
};

// Reader/writer lock. Writers use Lock/Unlock (or WriterLock), readers
// use ReaderLock()/ReaderUnlock() (or the ReaderLock scoped type).
// Shared and exclusive acquisition occupy the same rank: a reader
// holding the shared side still must not wait on a lower-ranked lock.
class MERGEPURGE_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(int rank) : rank_(rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() MERGEPURGE_ACQUIRE() {
    lockorder::OnAcquire(rank_);
    mu_.lock();
  }
  void Unlock() MERGEPURGE_RELEASE() {
    mu_.unlock();
    lockorder::OnRelease(rank_);
  }
  void LockShared() MERGEPURGE_ACQUIRE_SHARED() {
    lockorder::OnAcquire(rank_);
    mu_.lock_shared();
  }
  void UnlockShared() MERGEPURGE_RELEASE_SHARED() {
    mu_.unlock_shared();
    lockorder::OnRelease(rank_);
  }

  int rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const int rank_;
};

// Condition variable usable only with Mutex. Waits atomically release and
// reacquire the caller's (already held) Mutex, so every Wait* member
// REQUIRES the mutex — clang rejects a wait outside the critical section.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) MERGEPURGE_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      MERGEPURGE_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_until(adopted, deadline);
    adopted.release();
    return status;
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      MERGEPURGE_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_for(adopted, timeout);
    adopted.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// --- Scoped critical sections ------------------------------------------------

// Exclusive critical section over a Mutex. Supports the batcher/runner
// pattern of stepping outside the lock mid-scope:
//
//   MutexLock lock(mu_);
//   ...
//   lock.Unlock();   // leave the critical section
//   ...              // lock-free work
//   lock.Lock();     // re-enter before the next guarded access
class MERGEPURGE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MERGEPURGE_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~MutexLock() MERGEPURGE_RELEASE() {
    if (held_) mu_.Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() MERGEPURGE_RELEASE() {
    mu_.Unlock();
    held_ = false;
  }
  void Lock() MERGEPURGE_ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

// Exclusive critical section over a SharedMutex (the writer side).
class MERGEPURGE_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) MERGEPURGE_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() MERGEPURGE_RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Shared critical section over a SharedMutex (the reader side).
class MERGEPURGE_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) MERGEPURGE_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() MERGEPURGE_RELEASE() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_UTIL_SYNC_H_
