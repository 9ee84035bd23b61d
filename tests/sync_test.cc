// Tests for the util/sync.h capability-annotated lock wrappers. The
// interesting property — "unannotated guarded access fails to compile" —
// lives in tests/negative_compile/ (checked at configure time under
// clang); what is testable at runtime is that the wrappers actually
// exclude, that CondVar waits wake, and that ReaderLock admits concurrent
// readers while WriterLock excludes them. tools/ci.sh runs this binary
// under ThreadSanitizer, so a wrapper that silently failed to lock would
// surface as a data race here.

#include "util/sync.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace mergepurge {
namespace {

TEST(MutexTest, MutexLockExcludesConcurrentIncrements) {
  Mutex mu(lockrank::kUnranked);
  int64_t counter = 0;  // Guarded by mu (by construction of the test).
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  MutexLock lock(mu);
  EXPECT_EQ(counter, static_cast<int64_t>(kThreads) * kIncrements);
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu(lockrank::kUnranked);
  mu.Lock();
  EXPECT_FALSE(mu.TryLock());
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, MutexLockUnlockRelockWindow) {
  // The batcher/runner pattern: step outside the critical section
  // mid-scope, then re-enter. Another thread must be able to take the
  // lock during the window.
  Mutex mu(lockrank::kUnranked);
  bool flag = false;

  MutexLock lock(mu);
  lock.Unlock();
  std::thread other([&mu, &flag] {
    MutexLock inner(mu);
    flag = true;
  });
  other.join();
  lock.Lock();
  EXPECT_TRUE(flag);
}

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mu(lockrank::kUnranked);
  CondVar cv;
  bool ready = false;

  std::thread waker([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyAll();
  });

  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    EXPECT_TRUE(ready);
  }
  waker.join();
}

TEST(CondVarTest, WaitForTimesOutWithoutNotify) {
  Mutex mu(lockrank::kUnranked);
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_EQ(cv.WaitFor(mu, std::chrono::milliseconds(5)),
            std::cv_status::timeout);
}

TEST(CondVarTest, WaitUntilHonorsDeadline) {
  Mutex mu(lockrank::kUnranked);
  CondVar cv;
  MutexLock lock(mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  EXPECT_EQ(cv.WaitUntil(mu, deadline), std::cv_status::timeout);
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

TEST(SharedMutexTest, ReadersShareWritersExclude) {
  SharedMutex mu(lockrank::kUnranked);
  int64_t value = 0;  // Guarded by mu.
  constexpr int kWriters = 2;
  constexpr int kReaders = 6;
  constexpr int kRounds = 2000;

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        WriterLock lock(mu);
        ++value;
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      int64_t last = 0;
      for (int i = 0; i < kRounds; ++i) {
        ReaderLock lock(mu);
        // Reads under the shared lock must be monotone: a torn or racy
        // read would eventually violate this.
        EXPECT_GE(value, last);
        last = value;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Shared mode admits two readers at once: each takes the lock and then,
  // still holding it, waits for the other to arrive. With the writers done
  // nothing else contends, so the overlap is certain rather than a
  // scheduling accident. Were ReaderLock exclusive, the second reader could
  // not arrive and the first would time out, failing instead of hanging.
  Mutex arrive_mu(lockrank::kUnranked);
  CondVar arrive_cv;
  int arrived = 0;  // Guarded by arrive_mu.
  std::atomic<int> met{0};
  auto reader = [&] {
    ReaderLock lock(mu);
    MutexLock guard(arrive_mu);
    ++arrived;
    arrive_cv.NotifyAll();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived < 2 && arrive_cv.WaitUntil(arrive_mu, deadline) ==
                              std::cv_status::no_timeout) {
    }
    if (arrived == 2) met.fetch_add(1);
  };
  std::thread first(reader);
  std::thread second(reader);
  first.join();
  second.join();
  EXPECT_EQ(met.load(), 2);

  WriterLock lock(mu);
  EXPECT_EQ(value, static_cast<int64_t>(kWriters) * kRounds);
}

// The runtime half of the deadlock defense (docs/concurrency.md),
// compiled into every build: acquiring a lower rank while holding a
// higher one must abort the process — that ordering is one half of a
// potential deadlock cycle even if this particular run would not hang.
TEST(LockOrderDeathTest, InversionAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex high(lockrank::kWal);
        Mutex low(lockrank::kEngine);
        MutexLock hold_high(high);
        MutexLock inverted(low);
      },
      "lock-order inversion");
}

// Two locks of one rank never nest, in either order: the coordinator's
// three leaves share lockrank::kCoordLeaf for exactly this reason.
TEST(LockOrderDeathTest, SameRankNestingAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex routing(lockrank::kCoordLeaf);
        Mutex closure(lockrank::kCoordLeaf);
        MutexLock a(routing);
        MutexLock b(closure);
      },
      "lock-order inversion");
}

// Any rank-increasing nesting is silent, including across release: the
// validator tracks a stack, not a high-water mark.
TEST(LockOrderDeathTest, IncreasingRanksAreSilent) {
  Mutex engine(lockrank::kEngine);
  Mutex labels(lockrank::kLabels);
  Mutex wal(lockrank::kWal);
  {
    MutexLock a(engine);
    MutexLock b(labels);
  }
  {
    MutexLock a(engine);
    MutexLock c(wal);
  }
  // Re-acquiring a lower rank after releasing the higher one is fine.
  {
    MutexLock c(wal);
  }
  {
    MutexLock a(engine);
  }
}

// Locks a test constructs with kUnranked are invisible to the validator
// in either direction.
TEST(LockOrderDeathTest, UnrankedLocksAreInvisible) {
  Mutex ranked(lockrank::kWal);
  Mutex unranked(lockrank::kUnranked);
  MutexLock a(ranked);
  MutexLock b(unranked);
}

}  // namespace
}  // namespace mergepurge
