// A fixed-size worker pool with a mutex-guarded FIFO queue. Tasks are
// coarse, so no work stealing is needed. Two users: ParallelFor below,
// which every parallel phase of a batch run goes through (CSV parse and
// write, conditioning, key build and sort, fragment scan, pair-set build,
// distinct-pair count, purge); and the service's Server, which hands each
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

// Indices per range of a per-record phase: a range of this many records
// costs milliseconds, far more than handing it to a worker.
inline constexpr size_t kParallelGrain = 4096;

// Runs fn(begin, end) over the ranges [k * grain, (k + 1) * grain) of
// [0, n), the last one cut at n, on a ThreadPool of `workers` threads,
// and returns once every range has run. Runs inline, as one range on the
// calling thread, when workers <= 1 or n <= grain. Per-record phases use
// the default grain; a caller whose indices are already coarse tasks
// (chunks, buckets, fragments, passes) passes grain 1, so each task is
// its own range. An exception thrown by fn is rethrown on the calling
// thread after every range has finished, the first in range order.
// Returns the summed run time of the ranges: the work's cost on one CPU.
double ParallelFor(size_t n, size_t workers,
                   const std::function<void(size_t begin, size_t end)>& fn,
                   size_t grain = kParallelGrain);

}  // namespace mergepurge

#endif  // MERGEPURGE_UTIL_THREAD_POOL_H_
