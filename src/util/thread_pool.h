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
#include <string>
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

  // Enqueues a task. A task that throws is caught by the worker (the pool
  // survives); the count and first exception message are retrievable via
  // exceptions_caught() / first_exception_message().
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished executing.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  // Number of tasks that exited via an exception since construction.
  size_t exceptions_caught() const;

  // what() of the first caught exception ("" if none; "unknown exception"
  // for non-std::exception throws).
  std::string first_exception_message() const;

 private:
  void WorkerLoop();

  mutable Mutex mu_{lockrank::kThreadPool};
  CondVar task_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ MERGEPURGE_GUARDED_BY(mu_);
  size_t in_flight_ MERGEPURGE_GUARDED_BY(mu_) = 0;
  bool shutting_down_ MERGEPURGE_GUARDED_BY(mu_) = false;
  size_t exceptions_caught_ MERGEPURGE_GUARDED_BY(mu_) = 0;
  std::string first_exception_message_ MERGEPURGE_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_UTIL_THREAD_POOL_H_
