// A fixed-size worker pool used by the parallel merge/purge implementations.
//
// Design notes: the shared-nothing coordinator in src/parallel assigns whole
// fragments or clusters as tasks; tasks are coarse, so a simple mutex-guarded
// queue is sufficient (no work stealing needed). Wait() provides a barrier so
// phases (cluster -> sort -> window-scan) stay ordered as in the paper.

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

  // Enqueues every task of `tasks` under one lock, so no worker starts one
  // before the last is queued. A running task may Submit more (a retry, at
  // the back of the queue); Wait() also waits for those.
  void SubmitAll(std::vector<std::function<void()>> tasks);

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
