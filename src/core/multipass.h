// MultiPass: "execute several independent runs of the sorted neighborhood
// method, each time using a different key and a relatively small window
// ... then apply the transitive closure to those pairs of records. The
// results will be a union of all pairs discovered by all independent runs,
// with no duplicates, plus all those pairs that can be inferred by
// transitivity of equality." (paper §2.4)

#ifndef MERGEPURGE_CORE_MULTIPASS_H_
#define MERGEPURGE_CORE_MULTIPASS_H_

#include <vector>

#include "core/clustering_method.h"
#include "core/sorted_neighborhood.h"
#include "core/union_find.h"
#include "keys/key_builder.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

// Computes the transitive closure of the given pair sets over n tuples and
// returns per-tuple component labels (tuples in the same component are
// declared the same entity).
std::vector<uint32_t> TransitiveClosure(
    const std::vector<const PairSet*>& pair_sets, size_t n);

struct MultiPassResult {
  std::vector<PassResult> passes;        // One per key, in input order.
  std::vector<uint32_t> component_of;    // Closure over all passes' pairs.
  // Merging the passes' pairs plus the closure over their union.
  double closure_seconds = 0.0;
  // Wall time of the whole run. The passes' scans overlap on the worker
  // pool, so this is less than the sum of the passes' busy times.
  double total_seconds = 0.0;

  // Number of distinct pairs across all passes before closure.
  uint64_t union_pair_count = 0;

  // Checkpointed runs: passes loaded from disk instead of computed.
  size_t passes_resumed = 0;

  // The passes' times plus the closure: the run's cost on one CPU (the
  // paper's serial T_mp, §3.5), for comparison with serial single passes.
  double busy_seconds() const {
    double seconds = closure_seconds;
    for (const PassResult& pass : passes) seconds += pass.total_seconds;
    return seconds;
  }
};

class MultiPass {
 public:
  enum class Method { kSortedNeighborhood, kClustering };

  MultiPass(Method method, size_t window,
            ClusteringOptions clustering_options = ClusteringOptions())
      : method_(method),
        window_(window),
        clustering_options_(clustering_options) {
    clustering_options_.window = window;
  }

  // Runs one pass per key and closes over the union of the results. All
  // passes, of either method, are scanned together on one worker pool
  // with a Clone() of `theory` per fragment attempt (paper §4: the
  // independent runs on 3P processors); the sorted-neighborhood method
  // scans banded fragments of each sorted list, the clustering method one
  // fragment per cluster. Each pass equals the serial method's pass
  // (SortedNeighborhood or ClusteringMethod::Run) exactly.
  Result<MultiPassResult> Run(const Dataset& dataset,
                              const std::vector<KeySpec>& keys,
                              const EquationalTheory& theory) const;

  // Checkpointed variant: after the passes run, persists each completed
  // pass's pairs, in pass order, and a manifest under `checkpoint_dir` (created if missing; see
  // core/checkpoint.h for the crash-consistency protocol). Passes whose
  // manifest matches the current dataset/key/config identity are loaded
  // from disk and skipped; the closure is always recomputed. An empty dir
  // behaves exactly like Run() above.
  Result<MultiPassResult> Run(const Dataset& dataset,
                              const std::vector<KeySpec>& keys,
                              const EquationalTheory& theory,
                              const std::string& checkpoint_dir) const;

 private:
  // Computes the `pending` passes into result->passes, marking each one
  // that ran to completion in `computed`: orders each key in turn, then
  // scans the fragments of every pass on one worker pool sized to the
  // process's CPU affinity.
  Status ScanPasses(const Dataset& dataset, const std::vector<KeySpec>& keys,
                    const std::vector<size_t>& pending,
                    const EquationalTheory& theory, MultiPassResult* result,
                    std::vector<bool>* computed) const;
  uint64_t ConfigDigest() const;

  Method method_;
  size_t window_;
  ClusteringOptions clustering_options_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_MULTIPASS_H_
