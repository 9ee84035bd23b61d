#include "parallel/fragment_scan.h"

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mergepurge {

std::vector<Fragment> MakeOverlappingFragments(size_t n, size_t p,
                                               size_t w) {
  std::vector<Fragment> fragments;
  if (n == 0 || p == 0) return fragments;
  if (p > n) p = n;
  const size_t overlap = w > 0 ? w - 1 : 0;

  // Distribute n positions as evenly as possible, then extend each
  // fragment's start backwards by the replicated band.
  size_t base = n / p;
  size_t extra = n % p;
  size_t cursor = 0;
  for (size_t i = 0; i < p; ++i) {
    size_t length = base + (i < extra ? 1 : 0);
    if (length == 0) break;
    Fragment fragment;
    fragment.begin = cursor >= overlap ? cursor - overlap : 0;
    fragment.fresh = cursor;
    fragment.end = cursor + length;
    fragments.push_back(fragment);
    cursor += length;
  }
  return fragments;
}

FragmentScanReport ScanFragments(const Dataset& dataset, size_t window,
                                 const std::vector<FragmentScanJob>& jobs,
                                 const TheoryFactory& theory_factory,
                                 size_t workers) {
  using Matches = std::vector<std::pair<TupleId, TupleId>>;
  // A task's next attempt is queued only when its last one has returned,
  // so one thread at a time writes its slot until the pool drains.
  struct Task {
    size_t job = 0;
    Fragment fragment;
    size_t attempts = 0;
    bool committed = false;
    Status error;
    Matches matches;
    ScanStats stats;
    double busy_seconds = 0.0;
  };
  std::vector<Task> tasks;
  for (size_t j = 0; j < jobs.size(); ++j) {
    for (const Fragment& fragment : jobs[j].fragments) {
      tasks.emplace_back();
      tasks.back().job = j;
      tasks.back().fragment = fragment;
    }
  }

  // A fragment scan reads only shared, immutable state (the dataset and
  // the order) and writes only attempt-local state until it succeeds, so
  // a failed attempt leaves nothing behind and may simply run again.
  auto attempt = [&](Task& task) -> Status {
    MERGEPURGE_RETURN_NOT_OK(
        FaultInjector::Global().OnPoint(fault_points::kFragmentScan));
    Timer busy;
    Span span("fragment-scan");
    span.AddArg("job", static_cast<uint64_t>(task.job));
    span.AddArg("begin", static_cast<uint64_t>(task.fragment.begin));
    span.AddArg("end", static_cast<uint64_t>(task.fragment.end));
    std::unique_ptr<EquationalTheory> theory = theory_factory();
    Matches local;
    const ScanStats stats = WindowScanner(window).ScanRange(
        dataset, *jobs[task.job].order, task.fragment.begin,
        task.fragment.fresh, task.fragment.end, *theory, &local);
    task.matches = std::move(local);
    task.stats = stats;
    task.busy_seconds = busy.ElapsedSeconds();
    task.committed = true;
    FlushScanStats(stats);
    theory->FlushMetrics();
    return Status::OK();
  };

  FragmentScanReport report;
  report.jobs.resize(jobs.size());
  if (!tasks.empty()) {
    ThreadPool pool(workers);
    // A failed attempt sends its fragment to the back of the queue: the
    // retry runs after the fragments queued meanwhile, so a burst of
    // failures spreads over many fragments instead of exhausting one.
    std::function<void(Task&)> run = [&](Task& task) {
      ++task.attempts;
      Status status;
      try {
        status = attempt(task);
      } catch (const std::exception& e) {
        status = Status::Internal(std::string("fragment scan threw: ") +
                                  e.what());
      } catch (...) {
        status = Status::Internal("fragment scan threw");
      }
      if (status.ok()) return;
      task.error = std::move(status);
      if (task.attempts < kMaxAttempts) {
        pool.Submit([&run, &task] { run(task); });
      }
    };
    std::vector<std::function<void()>> first_attempts;
    first_attempts.reserve(tasks.size());
    for (Task& task : tasks) {
      first_attempts.push_back([&run, &task] { run(task); });
    }
    pool.SubmitAll(std::move(first_attempts));
    pool.Wait();
  }

  uint64_t retries = 0;
  size_t unprocessed = 0;
  std::string names;
  Status first_error;
  for (auto& job : report.jobs) job.complete = true;
  for (const Task& task : tasks) {
    retries += task.attempts - 1;
    FragmentScanResult& job = report.jobs[task.job];
    job.stats += task.stats;
    job.busy_seconds += task.busy_seconds;
    if (task.committed) continue;
    job.complete = false;
    if (unprocessed++ == 0) {
      first_error = task.error;
    } else {
      names += ",";
    }
    names += StringPrintf("%zu:%zu-%zu", task.job, task.fragment.begin,
                          task.fragment.end);
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter* const retries_counter =
      registry.GetCounter(metric_names::kResilientRetries);
  static Counter* const exhausted =
      registry.GetCounter(metric_names::kResilientExhausted);
  static Counter* const parallel_tasks =
      registry.GetCounter(metric_names::kParallelTasks);
  retries_counter->Add(retries);
  exhausted->Add(unprocessed);
  parallel_tasks->Add(tasks.size() - unprocessed);

  for (FragmentScanResult& job : report.jobs) {
    if (job.complete) job.pairs.Reserve(job.stats.matches);
  }
  for (Task& task : tasks) {
    FragmentScanResult& job = report.jobs[task.job];
    if (job.complete) {
      for (const auto& [a, b] : task.matches) job.pairs.Add(a, b);
    }
    Matches().swap(task.matches);
  }

  if (unprocessed > 0) {
    report.status = Status::PartialFailure(StringPrintf(
        "%zu of %zu fragments unprocessed after %zu attempts "
        "(job:begin-end): [%s]; last error: %s",
        unprocessed, tasks.size(), kMaxAttempts, names.c_str(),
        first_error.ToString().c_str()));
  }
  return report;
}

}  // namespace mergepurge
