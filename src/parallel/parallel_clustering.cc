#include "parallel/parallel_clustering.h"

#include <algorithm>

#include "cluster/partitioner.h"
#include "core/window_scanner.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/timer.h"

namespace mergepurge {

ParallelClustering::ParallelClustering(size_t num_processors,
                                       ClusteringOptions options,
                                       ResilientOptions resilience)
    : num_processors_(num_processors == 0 ? 1 : num_processors),
      options_(options),
      resilience_(resilience) {
  resilience_.num_workers = num_processors_;
}

Result<ParallelRunResult> ParallelClustering::Run(
    const Dataset& dataset, const KeySpec& key,
    const TheoryFactory& theory_factory) const {
  if (options_.window < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }
  KeyBuilder full_builder(key);
  MERGEPURGE_RETURN_NOT_OK(full_builder.Validate(dataset.schema()));

  static LatencyHistogram* const scan_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kSnmScanUs);
  static Counter* const passes_counter =
      MetricsRegistry::Global().GetCounter(metric_names::kSnmPasses);

  Span run_span("parallel-clustering");
  run_span.AddArg("key", key.name);
  run_span.AddArg("processors", static_cast<uint64_t>(num_processors_));

  ParallelRunResult result;
  if (dataset.empty()) return result;
  Timer total;

  // Coordinator: extract fixed keys and range-partition into C*P clusters.
  Timer phase;
  const size_t total_clusters =
      std::max<size_t>(1, options_.num_clusters * num_processors_);
  const KeySpec fixed_spec = key.FixedWidth(options_.fixed_key_prefix);
  KeyBuilder fixed_builder(fixed_spec);
  std::vector<std::string> cluster_keys = fixed_builder.BuildKeys(dataset);

  Rng rng(options_.seed);
  Histogram histogram =
      BuildHistogram(cluster_keys, options_.histogram_depth,
                     options_.histogram_sample, &rng);
  Result<KeyPartitioner> partitioner =
      KeyPartitioner::FromHistogram(histogram, total_clusters);
  if (!partitioner.ok()) return partitioner.status();

  std::vector<std::vector<TupleId>> clusters(partitioner->num_clusters());
  for (size_t t = 0; t < dataset.size(); ++t) {
    clusters[partitioner->ClusterOf(cluster_keys[t])].push_back(
        static_cast<TupleId>(t));
  }
  result.cluster_seconds = phase.ElapsedSeconds();

  // Static load balancing: LPT on cluster sizes ("It then redistributes
  // the clusters among processors using a longest processing time first
  // strategy").
  std::vector<uint64_t> sizes;
  sizes.reserve(clusters.size());
  for (const auto& cluster : clusters) sizes.push_back(cluster.size());
  last_balance_ = LptAssign(sizes, num_processors_);

  // Workers: sort + window scan each assigned cluster. One retryable task
  // per non-trivial cluster; the LPT assignment seeds each task's initial
  // worker, and the runner reassigns on repeated failure. Attempts sort a
  // private copy of the cluster so concurrent speculative re-executions
  // never race on shared state.
  phase.Restart();
  result.worker_busy_seconds.assign(num_processors_, 0.0);
  std::vector<ResilientTask> tasks;
  std::vector<size_t> initial_workers;
  for (size_t c = 0; c < clusters.size(); ++c) {
    if (clusters[c].size() < 2) continue;
    initial_workers.push_back(last_balance_.assignment[c]);
    const std::vector<TupleId>* cluster = &clusters[c];
    tasks.push_back([&, cluster](const AttemptContext& ctx) -> Status {
      MERGEPURGE_RETURN_NOT_OK(
          FaultInjector::Global().OnPoint(fault_points::kClusterSnm));
      Timer busy;
      std::unique_ptr<EquationalTheory> theory = theory_factory();
      WindowScanner scanner(options_.window);
      PairSet local_pairs;
      std::vector<TupleId> sorted = *cluster;
      std::sort(sorted.begin(), sorted.end(),
                [&cluster_keys](TupleId a, TupleId b) {
                  int cmp = cluster_keys[a].compare(cluster_keys[b]);
                  if (cmp != 0) return cmp < 0;
                  return a < b;
                });
      ScanStats stats = scanner.Scan(dataset, sorted, *theory, &local_pairs);
      double busy_seconds = busy.ElapsedSeconds();
      // Metrics flush rides the commit: an attempt that loses the
      // exactly-once race contributes nothing to the global registry.
      ctx.Commit([&] {
        result.pairs.Merge(local_pairs);
        result.comparisons += stats.comparisons;
        result.matches += stats.matches;
        result.worker_busy_seconds[ctx.worker] += busy_seconds;
        FlushScanStats(stats);
        theory->FlushMetrics();
      });
      return Status::OK();
    });
  }

  ResilientRunner runner(resilience_);
  ResilientReport report = runner.Run(tasks, initial_workers);
  result.retries = report.retries;
  result.speculations = report.speculations;
  if (!report.status.ok()) return report.status;

  result.scan_seconds = phase.ElapsedSeconds();
  scan_us->Record(static_cast<double>(phase.ElapsedMicros()));
  passes_counter->Increment();
  result.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace mergepurge
