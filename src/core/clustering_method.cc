#include "core/clustering_method.h"

#include <algorithm>

#include "cluster/partitioner.h"
#include "core/window_scanner.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
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

  // --- Phase 1: extract the fixed-size key and cluster the data. ---
  Timer phase;
  std::vector<std::string> keys;
  {
    Span span("create-keys");
    keys = KeyBuilder(key.FixedWidth(options.fixed_key_prefix))
               .BuildKeys(dataset);
  }
  pass->create_keys_seconds = phase.ElapsedSeconds();

  phase.Restart();
  {
    Span span("cluster");
    // A full scan of every key at the paper's depth of three characters.
    Histogram histogram = BuildHistogram(keys, 3, 0, nullptr);
    Result<KeyPartitioner> partitioner =
        KeyPartitioner::FromHistogram(histogram, options.num_clusters);
    if (!partitioner.ok()) return partitioner.status();

    // Counting sort by cluster: each cluster's tuple ids stay ascending.
    std::vector<uint32_t> cluster_of(dataset.size());
    clustered.bounds.assign(partitioner->num_clusters() + 1, 0);
    for (size_t t = 0; t < dataset.size(); ++t) {
      cluster_of[t] = static_cast<uint32_t>(partitioner->ClusterOf(keys[t]));
      ++clustered.bounds[cluster_of[t] + 1];
    }
    for (size_t c = 1; c < clustered.bounds.size(); ++c) {
      clustered.bounds[c] += clustered.bounds[c - 1];
    }
    std::vector<size_t> next(clustered.bounds.begin(),
                             clustered.bounds.end() - 1);
    clustered.order.resize(dataset.size());
    for (size_t t = 0; t < dataset.size(); ++t) {
      clustered.order[next[cluster_of[t]]++] = static_cast<TupleId>(t);
    }
  }
  pass->cluster_seconds = phase.ElapsedSeconds();

  // Surface severe key skew ("we must expect to compute very large
  // clusters and some empty clusters", §2.2.1): a hot cluster erodes both
  // the method's speed advantage and downstream load balance.
  const size_t num_clusters = clustered.bounds.size() - 1;
  const std::vector<uint64_t> sizes = clustered.Sizes();
  const uint64_t largest = *std::max_element(sizes.begin(), sizes.end());
  const size_t average = dataset.size() / num_clusters;
  if (average > 0 && largest > 4 * average) {
    MERGEPURGE_LOG(kWarning)
        << "clustering key '" << key.name << "': largest cluster holds "
        << largest << " records (" << num_clusters << " clusters, average "
        << average << ") — key prefix is skewed";
  }

  // --- Phase 2's sorts: by the fixed cluster key (paper), or by the full
  // key (ablation), which then replaces it in `keys`. ---
  if (options.sort_with_full_key) {
    phase.Restart();
    Span span("create-keys");
    keys = full_builder.BuildKeys(dataset);
    pass->create_keys_seconds += phase.ElapsedSeconds();
  }
  phase.Restart();
  {
    Span span("sort");
    for (size_t c = 0; c < num_clusters; ++c) {
      std::sort(clustered.order.begin() + clustered.bounds[c],
                clustered.order.begin() + clustered.bounds[c + 1],
                [&keys](TupleId a, TupleId b) {
                  int cmp = keys[a].compare(keys[b]);
                  if (cmp != 0) return cmp < 0;
                  return a < b;
                });
    }
  }
  pass->sort_seconds = phase.ElapsedSeconds();
  sort_us->Record(static_cast<double>(phase.ElapsedMicros()));
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
  std::vector<std::pair<TupleId, TupleId>> matches;
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
  result.pairs.Reserve(matches.size());
  for (const auto& [a, b] : matches) result.pairs.Add(a, b);
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
