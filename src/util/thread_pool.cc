#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <exception>

#include "util/timer.h"

namespace mergepurge {

size_t AvailableCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<size_t>(count);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  task_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) all_done_.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) task_available_.Wait(mu_);
      if (queue_.empty()) {
        // shutting_down_ must be true here.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      // The pool survives; see Submit().
    }
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

double ParallelFor(size_t n, size_t workers,
                   const std::function<void(size_t begin, size_t end)>& fn,
                   size_t grain) {
  if (n == 0) return 0.0;
  if (grain == 0) grain = 1;
  if (workers <= 1 || n <= grain) {
    Timer timer;
    fn(0, n);
    return timer.ElapsedSeconds();
  }
  const size_t ranges = (n + grain - 1) / grain;
  std::vector<double> seconds(ranges, 0.0);
  std::vector<std::exception_ptr> errors(ranges);
  {
    ThreadPool pool(std::min(workers, ranges));
    for (size_t r = 0; r < ranges; ++r) {
      pool.Submit([&, r] {
        Timer timer;
        try {
          fn(r * grain, std::min(n, (r + 1) * grain));
        } catch (...) {
          errors[r] = std::current_exception();
        }
        seconds[r] = timer.ElapsedSeconds();
      });
    }
    pool.Wait();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  double total = 0.0;
  for (double s : seconds) total += s;
  return total;
}

}  // namespace mergepurge
