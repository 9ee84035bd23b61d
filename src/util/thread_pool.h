// A fixed-size worker pool with a mutex-guarded FIFO queue. Tasks are
// coarse, so no work stealing is needed. Two users: ScanFragments
// (src/parallel/fragment_scan.h) submits each fragment of a multi-pass
// run as one task, runs it exactly once and uses Wait() as the barrier
// before it builds the pair sets; the service's Server hands each
// connection to a worker for its lifetime.

#ifndef MERGEPURGE_UTIL_THREAD_POOL_H_
#define MERGEPURGE_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace mergepurge {

// CPUs this process may run on (its sched_getaffinity mask, so `taskset`
// limits it); at least 1.
size_t AvailableCpus();

class ThreadPool {
 public:
  // Spawns num_threads workers. num_threads == 0 is clamped to 1.
  explicit ThreadPool(size_t num_threads);

  // Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. A task that throws is caught by the worker, so the
  // pool survives; a task that must report failure catches its own.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished executing.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  mutable Mutex mu_{lockrank::kThreadPool};
  CondVar task_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ MERGEPURGE_GUARDED_BY(mu_);
  size_t in_flight_ MERGEPURGE_GUARDED_BY(mu_) = 0;
  bool shutting_down_ MERGEPURGE_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_UTIL_THREAD_POOL_H_
