#include "parallel/fragment_scan.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/timer.h"

namespace mergepurge {

FragmentScanReport ScanFragments(const Dataset& dataset, size_t window,
                                 const std::vector<FragmentScanJob>& jobs,
                                 const TheoryFactory& theory_factory,
                                 const ResilientOptions& resilience) {
  using Matches = std::vector<std::pair<TupleId, TupleId>>;
  struct Task {
    size_t job;
    Fragment fragment;
  };
  std::vector<Task> tasks;
  for (size_t j = 0; j < jobs.size(); ++j) {
    for (const Fragment& fragment : jobs[j].fragments) {
      tasks.push_back({j, fragment});
    }
  }

  FragmentScanReport report;
  report.jobs.resize(jobs.size());
  report.worker_busy_seconds.assign(
      std::max<size_t>(1, resilience.num_workers), 0.0);
  // Written only inside commits, which the runner serializes.
  std::vector<Matches> matches(tasks.size());

  // A fragment scan is idempotent (it reads the shared sorted order and
  // writes only task-local state until commit), so the runner may
  // re-execute it freely on any worker.
  std::vector<ResilientTask> attempts;
  attempts.reserve(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    attempts.push_back([&, t](const AttemptContext& ctx) -> Status {
      MERGEPURGE_RETURN_NOT_OK(
          FaultInjector::Global().OnPoint(fault_points::kFragmentScan));
      const Task& task = tasks[t];
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
      const double busy_seconds = busy.ElapsedSeconds();
      // Metrics flush rides the commit: an attempt that loses the
      // exactly-once race contributes nothing to the global registry.
      ctx.Commit([&] {
        matches[t] = std::move(local);
        FragmentScanResult& job = report.jobs[task.job];
        job.stats += stats;
        job.busy_seconds += busy_seconds;
        report.worker_busy_seconds[ctx.worker] += busy_seconds;
        FlushScanStats(stats);
        theory->FlushMetrics();
      });
      return Status::OK();
    });
  }

  ResilientRunner runner(resilience);
  ResilientReport run = runner.Run(attempts);
  report.retries = run.retries;
  report.speculations = run.speculations;
  report.status = run.status;

  std::vector<bool> complete(jobs.size(), true);
  for (size_t index : run.unprocessed) complete[tasks[index].job] = false;
  size_t t = 0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    FragmentScanResult& job = report.jobs[j];
    job.complete = complete[j];
    if (job.complete) job.pairs.Reserve(job.stats.matches);
    for (size_t f = 0; f < jobs[j].fragments.size(); ++f, ++t) {
      if (job.complete) {
        for (const auto& [a, b] : matches[t]) job.pairs.Add(a, b);
      }
      Matches().swap(matches[t]);
    }
  }
  return report;
}

}  // namespace mergepurge
