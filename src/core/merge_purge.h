// MergePurgeEngine: the top-level public API. One call runs the complete
// pipeline of the paper: condition the concatenated record list, run one or
// more merge passes (sorted-neighborhood or clustering method) with the
// given keys, compute the transitive closure, and optionally purge —
// collapse each equivalence class into one merged record.
//
// Typical use (see examples/quickstart.cpp):
//
//   MergePurgeOptions options;
//   options.keys = StandardThreeKeys();   // multi-pass over 3 keys
//   options.window = 10;
//   MergePurgeEngine engine(options);
//   EmployeeTheory theory;
//   auto result = engine.Run(dataset, theory);
//   Dataset deduped = result->Purge(dataset);

#ifndef MERGEPURGE_CORE_MERGE_PURGE_H_
#define MERGEPURGE_CORE_MERGE_PURGE_H_

#include <vector>

#include "core/multipass.h"
#include "keys/key_builder.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

struct MergePurgeOptions {
  using Method = MultiPass::Method;

  Method method = Method::kSortedNeighborhood;

  // Sort keys; one entry = single pass, several = multi-pass + closure.
  std::vector<KeySpec> keys;

  // Window size of the merge phase.
  size_t window = 10;

  // Clustering-method tuning (used when method == kClustering).
  ClusteringOptions clustering;

  // Condition (normalize) the records before merging (paper §3.2). The
  // engine conditions a private copy; the caller's dataset is untouched.
  bool condition_records = true;

  // Run the corpus spelling corrector over the city field during
  // conditioning (paper §3.2: improves detected duplicates by ~1.5-2%).
  bool spell_correct_city = false;

  // Non-empty: checkpoint each pass's pairs under this directory and
  // resume from any pass already completed there with matching inputs and
  // parameters (core/checkpoint.h). The CLI exposes this as --resume=DIR.
  std::string checkpoint_dir;
};

struct MergePurgeResult {
  // Per-tuple equivalence-class labels after the transitive closure.
  std::vector<uint32_t> component_of;

  // Per-pass details and closure timing.
  MultiPassResult detail;

  // Number of distinct entities found (equivalence classes).
  size_t num_entities = 0;

  // Purge phase under the default PurgePolicy (longest non-empty value per
  // field); a rule program's own policy applies its `merge` directives.
  // Records must be the dataset the result was computed on; any other
  // size aborts.
  Dataset Purge(const Dataset& dataset) const;
};

class MergePurgeEngine {
 public:
  explicit MergePurgeEngine(MergePurgeOptions options);

  const MergePurgeOptions& options() const { return options_; }

  // Runs merge (and closure) over the dataset. The sorted-neighborhood
  // passes scan on worker threads, each with its own Clone() of `theory`,
  // so `theory`'s own counters do not move; comparison counts are in
  // result.detail.passes.
  Result<MergePurgeResult> Run(const Dataset& dataset,
                               const EquationalTheory& theory) const;

 private:
  MergePurgeOptions options_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_MERGE_PURGE_H_
