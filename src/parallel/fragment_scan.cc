#include "parallel/fragment_scan.h"

#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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
  // One task per fragment, laid out job by job: job j's tasks are
  // [job_begin[j], job_begin[j + 1]). A task's worker is the only writer
  // of its slot until ParallelFor returns.
  struct Task {
    size_t job = 0;
    Fragment fragment;
    Status error;
    std::vector<std::pair<TupleId, TupleId>> matches;
    ScanStats stats;
    double busy_seconds = 0.0;
  };
  std::vector<Task> tasks;
  std::vector<size_t> job_begin(1, 0);
  for (size_t j = 0; j < jobs.size(); ++j) {
    for (const Fragment& fragment : jobs[j].fragments) {
      tasks.emplace_back();
      tasks.back().job = j;
      tasks.back().fragment = fragment;
    }
    job_begin.push_back(tasks.size());
  }

  auto scan = [&](Task& task) {
    Timer busy;
    Span span("fragment-scan");
    span.AddArg("job", static_cast<uint64_t>(task.job));
    span.AddArg("begin", static_cast<uint64_t>(task.fragment.begin));
    span.AddArg("end", static_cast<uint64_t>(task.fragment.end));
    std::unique_ptr<EquationalTheory> theory = theory_factory();
    const ScanStats stats = WindowScanner(window).ScanRange(
        dataset, *jobs[task.job].order, task.fragment.begin,
        task.fragment.fresh, task.fragment.end, *theory, &task.matches);
    task.stats = stats;
    task.busy_seconds = busy.ElapsedSeconds();
    FlushScanStats(stats);
    theory->FlushMetrics();
  };
  ParallelFor(
      tasks.size(), workers,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          try {
            scan(tasks[i]);
          } catch (const std::exception& e) {
            tasks[i].error = Status::Internal(
                std::string("fragment scan threw: ") + e.what());
          } catch (...) {
            tasks[i].error = Status::Internal("fragment scan threw");
          }
        }
      },
      /*grain=*/1);

  FragmentScanReport report;
  report.jobs.resize(jobs.size());
  for (auto& job : report.jobs) job.complete = true;
  size_t failed = 0;
  std::string names;
  const Status* first_error = nullptr;
  for (const Task& task : tasks) {
    FragmentScanResult& job = report.jobs[task.job];
    job.stats += task.stats;
    job.busy_seconds += task.busy_seconds;
    if (task.error.ok()) continue;
    job.complete = false;
    if (failed++ == 0) {
      first_error = &task.error;
    } else {
      names += ",";
    }
    names += StringPrintf("%zu:%zu-%zu", task.job, task.fragment.begin,
                          task.fragment.end);
  }
  static Counter* const parallel_tasks =
      MetricsRegistry::Global().GetCounter(metric_names::kParallelTasks);
  parallel_tasks->Add(tasks.size() - failed);

  {
    // One task per job: its pairs in fragment order, the serial order.
    Span span("pair-set-build");
    ParallelFor(
        jobs.size(), workers,
        [&](size_t begin, size_t end) {
          for (size_t j = begin; j < end; ++j) {
            FragmentScanResult& job = report.jobs[j];
            if (job.complete) job.pairs.Reserve(job.stats.matches);
            for (size_t i = job_begin[j]; i < job_begin[j + 1]; ++i) {
              if (job.complete) {
                for (const auto& [a, b] : tasks[i].matches) {
                  job.pairs.Add(a, b);
                }
              }
              std::vector<std::pair<TupleId, TupleId>>().swap(
                  tasks[i].matches);
            }
          }
        },
        /*grain=*/1);
  }

  if (failed > 0) {
    report.status = Status::PartialFailure(StringPrintf(
        "%zu of %zu fragments failed (job:begin-end): [%s]; first error: %s",
        failed, tasks.size(), names.c_str(),
        first_error->ToString().c_str()));
  }
  return report;
}

}  // namespace mergepurge
