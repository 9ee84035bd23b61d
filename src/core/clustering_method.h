// ClusteringMethod: one pass of the clustering variant (paper §2.2.1).
//
// Phase 1 (cluster data): extract a fixed-size key per record and assign
// it to one of C equi-depth clusters via the key-prefix histogram.
// Phase 2: run the sorted-neighborhood method independently inside each
// cluster — sorting by the SAME fixed-size key extracted in phase 1
// ("We do not need, however, to recompute a key ... We can use the key
// extracted above for sorting"). The fixed key is what costs the method
// accuracy relative to full-key SNM (paper §3.4); set
// ClusteringOptions::sort_with_full_key to ablate that choice.

#ifndef MERGEPURGE_CORE_CLUSTERING_METHOD_H_
#define MERGEPURGE_CORE_CLUSTERING_METHOD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sorted_neighborhood.h"
#include "keys/key_builder.h"
#include "parallel/fragment_scan.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

struct ClusteringOptions {
  // Number of clusters ("initially divided the data into 32 clusters ...
  // chosen to match the fan-out of the merge-sort algorithm", §3.4).
  size_t num_clusters = 32;

  // Window for the per-cluster scans.
  size_t window = 10;

  // Leading characters of each variable-length key component kept in the
  // fixed-size cluster key (the paper's 3-letter example).
  size_t fixed_key_prefix = 3;

  // Ablation: sort clusters by the full variable-length key instead of the
  // fixed cluster key (closes the accuracy gap vs SNM; not what the paper's
  // clustering method does).
  bool sort_with_full_key = false;
};

// A clustering pass's record order: the clusters concatenated in cluster
// order, each sorted by its sort key. Cluster c holds positions
// [bounds[c], bounds[c + 1]) of `order`; a cluster may be empty.
struct ClusteredOrder {
  std::vector<TupleId> order;
  std::vector<size_t> bounds;  // One more entry than there are clusters.

  // Each cluster's record count, in cluster order.
  std::vector<uint64_t> Sizes() const;

  // The pass's scan units: one unbanded fragment per cluster of at least
  // two records. Clusters share no window (§2.2.1), so each is scanned on
  // its own, by one processor in the parallel form (§4.2).
  std::vector<Fragment> Fragments() const;
};

// Everything of one clustering pass but the scans: builds the fixed-size
// cluster key, range-partitions the records into options.num_clusters
// clusters by its histogram, and sorts each cluster by that key (or by
// the full key with options.sort_with_full_key) with the order builder of
// core/key_order.h, whose buckets are the clusters. Key builds, cluster
// lookups and sorts run on the pool. Times the create-keys, cluster and
// sort phases into `pass` as summed task time, and warns when the key is
// skewed.
Result<ClusteredOrder> ClusterOrder(const Dataset& dataset,
                                    const KeySpec& key,
                                    const ClusteringOptions& options,
                                    PassResult* pass);

class ClusteringMethod {
 public:
  explicit ClusteringMethod(ClusteringOptions options) : options_(options) {}

  const ClusteringOptions& options() const { return options_; }

  // Runs one clustering-method pass with `key` over `dataset`: ClusterOrder,
  // then a window scan of each cluster on the calling thread. The serial
  // reference for MultiPass's clustering passes.
  Result<PassResult> Run(const Dataset& dataset, const KeySpec& key,
                         const EquationalTheory& theory) const;

 private:
  ClusteringOptions options_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_CLUSTERING_METHOD_H_
