#include "core/clustering_method.h"

#include <algorithm>

#include "cluster/partitioner.h"
#include "core/key_order.h"
#include "core/window_scanner.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mergepurge {

std::vector<uint64_t> ClusteredOrder::Sizes() const {
  std::vector<uint64_t> sizes;
  for (size_t c = 0; c + 1 < bounds.size(); ++c) {
    sizes.push_back(bounds[c + 1] - bounds[c]);
  }
  return sizes;
}

std::vector<Fragment> ClusteredOrder::Fragments() const {
  std::vector<Fragment> fragments;
  for (size_t c = 0; c + 1 < bounds.size(); ++c) {
    if (bounds[c + 1] - bounds[c] < 2) continue;
    fragments.push_back({bounds[c], bounds[c], bounds[c + 1]});
  }
  return fragments;
}

Result<ClusteredOrder> ClusterOrder(const Dataset& dataset,
                                    const KeySpec& key,
                                    const ClusteringOptions& options,
                                    PassResult* pass) {
  if (options.num_clusters == 0) {
    return Status::InvalidArgument("num_clusters must be >= 1");
  }
  KeyBuilder full_builder(key);
  MERGEPURGE_RETURN_NOT_OK(full_builder.Validate(dataset.schema()));
  ClusteredOrder clustered;
  clustered.bounds.push_back(0);
  if (dataset.empty()) return clustered;

  static LatencyHistogram* const sort_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kSnmSortUs);
  const size_t workers = AvailableCpus();

  // --- Phase 1: extract the fixed-size key and cluster the data. ---
  std::vector<std::string> keys;
  {
    Span span("create-keys");
    pass->create_keys_seconds = 0.0;
    keys = KeyBuilder(key.FixedWidth(options.fixed_key_prefix))
               .BuildKeys(dataset, &pass->create_keys_seconds);
  }

  std::vector<uint32_t> cluster_of(dataset.size());
  size_t num_clusters = 0;
  {
    Span span("cluster");
    Timer phase;
    // A full scan of every key at the paper's depth of three characters.
    Histogram histogram = BuildHistogram(keys, 3, 0, nullptr);
    Result<KeyPartitioner> partitioner =
        KeyPartitioner::FromHistogram(histogram, options.num_clusters);
    if (!partitioner.ok()) return partitioner.status();
    num_clusters = partitioner->num_clusters();
    pass->cluster_seconds =
        phase.ElapsedSeconds() +
        ParallelFor(dataset.size(), workers, [&](size_t begin, size_t end) {
          for (size_t t = begin; t < end; ++t) {
            cluster_of[t] =
                static_cast<uint32_t>(partitioner->ClusterOf(keys[t]));
          }
        });
  }

  // --- Phase 2's sorts: by the fixed cluster key (paper), or by the full
  // key (ablation), which then replaces it in `keys`. ---
  if (options.sort_with_full_key) {
    Span span("create-keys");
    keys = full_builder.BuildKeys(dataset, &pass->create_keys_seconds);
  }
  KeyOrder sorted;
  {
    Span span("sort");
    sorted = OrderByBuckets(keys, cluster_of, num_clusters, workers);
  }
  pass->sort_seconds = sorted.busy_seconds;
  sort_us->Record(sorted.busy_seconds * 1e6);
  clustered.order = std::move(sorted.order);
  clustered.bounds = std::move(sorted.bounds);

  // Surface severe key skew ("we must expect to compute very large
  // clusters and some empty clusters", §2.2.1): a hot cluster erodes both
  // the method's speed advantage and downstream load balance.
  const std::vector<uint64_t> sizes = clustered.Sizes();
  const uint64_t largest = *std::max_element(sizes.begin(), sizes.end());
  const size_t average = dataset.size() / num_clusters;
  if (average > 0 && largest > 4 * average) {
    MERGEPURGE_LOG(kWarning)
        << "clustering key '" << key.name << "': largest cluster holds "
        << largest << " records (" << num_clusters << " clusters, average "
        << average << ") — key prefix is skewed";
  }
  return clustered;
}

Result<PassResult> ClusteringMethod::Run(
    const Dataset& dataset, const KeySpec& key,
    const EquationalTheory& theory) const {
  if (options_.window < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }

  static Counter* const passes_counter =
      MetricsRegistry::Global().GetCounter(metric_names::kSnmPasses);
  static LatencyHistogram* const scan_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kSnmScanUs);

  Span pass_span("clustering-pass");
  pass_span.AddArg("key", key.name);

  PassResult result;
  result.key_name = key.name;
  Timer total;
  Result<ClusteredOrder> clustered =
      ClusterOrder(dataset, key, options_, &result);
  if (!clustered.ok()) return clustered.status();
  if (dataset.empty()) return result;

  // --- Phase 2: sorted-neighborhood inside each cluster. ---
  Timer phase;
  ScanStats stats;
  std::vector<uint64_t> matches;
  {
    Span span("cluster-scan");
    WindowScanner scanner(options_.window);
    for (const Fragment& cluster : clustered->Fragments()) {
      stats += scanner.ScanRange(dataset, clustered->order, cluster.begin,
                                 cluster.fresh, cluster.end, theory,
                                 &matches);
    }
    span.AddArg("clusters",
                static_cast<uint64_t>(clustered->bounds.size() - 1));
    span.AddArg("comparisons", stats.comparisons);
  }
  result.scan_seconds = phase.ElapsedSeconds();
  result.pairs = PairSet(std::move(matches));
  result.windows = stats.windows;
  result.comparisons = stats.comparisons;
  result.matches = stats.matches;

  FlushScanStats(stats);
  theory.FlushMetrics();
  passes_counter->Increment();
  scan_us->Record(result.scan_seconds * 1e6);

  result.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace mergepurge
