#include "core/multipass.h"

#include <filesystem>
#include <unordered_set>

#include "core/checkpoint.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace mergepurge {

std::vector<uint32_t> TransitiveClosure(
    const std::vector<const PairSet*>& pair_sets, size_t n) {
  static Counter* const unions =
      MetricsRegistry::Global().GetCounter(metric_names::kClosureUnions);
  static Counter* const union_calls =
      MetricsRegistry::Global().GetCounter(metric_names::kClosureUnionCalls);
  static Counter* const compressions = MetricsRegistry::Global().GetCounter(
      metric_names::kClosurePathCompressions);
  static LatencyHistogram* const closure_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kClosureUs);

  Span span("transitive-closure");
  Timer timer;
  UnionFind uf(n);
  for (const PairSet* pairs : pair_sets) {
    pairs->ForEach([&uf](TupleId a, TupleId b) { uf.Union(a, b); });
  }
  std::vector<uint32_t> labels = uf.ComponentLabels();
  span.AddArg("unions", uf.unions_performed());
  unions->Add(uf.unions_performed());
  union_calls->Add(uf.union_calls());
  compressions->Add(uf.path_compressions());
  closure_us->Record(static_cast<double>(timer.ElapsedMicros()));
  return labels;
}

std::vector<uint32_t> TransitiveClosure(const PairSet& pairs, size_t n) {
  return TransitiveClosure(std::vector<const PairSet*>{&pairs}, n);
}

Result<PassResult> MultiPass::RunOnePass(
    const Dataset& dataset, const KeySpec& key,
    const EquationalTheory& theory) const {
  return method_ == Method::kSortedNeighborhood
             ? SortedNeighborhood(window_).Run(dataset, key, theory)
             : ClusteringMethod(clustering_options_).Run(dataset, key,
                                                         theory);
}

uint64_t MultiPass::ConfigDigest() const {
  std::string config = StringPrintf(
      "method=%d;window=%zu",
      static_cast<int>(method_), window_);
  if (method_ == Method::kClustering) {
    config += StringPrintf(
        ";clusters=%zu;prefix=%zu;depth=%zu;sample=%zu;full_key=%d;seed=%llu",
        clustering_options_.num_clusters,
        clustering_options_.fixed_key_prefix,
        clustering_options_.histogram_depth,
        clustering_options_.histogram_sample,
        clustering_options_.sort_with_full_key ? 1 : 0,
        static_cast<unsigned long long>(clustering_options_.seed));
  }
  return Fnv1a64(config);
}

Result<MultiPassResult> MultiPass::Run(
    const Dataset& dataset, const std::vector<KeySpec>& keys,
    const EquationalTheory& theory) const {
  return Run(dataset, keys, theory, /*checkpoint_dir=*/"");
}

Result<MultiPassResult> MultiPass::Run(
    const Dataset& dataset, const std::vector<KeySpec>& keys,
    const EquationalTheory& theory,
    const std::string& checkpoint_dir) const {
  if (keys.empty()) {
    return Status::InvalidArgument("multi-pass requires at least one key");
  }

  const bool checkpointing = !checkpoint_dir.empty();
  uint64_t dataset_digest = 0;
  uint64_t config_digest = 0;
  if (checkpointing) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir, ec);
    if (ec) {
      return Status::IoError("cannot create checkpoint dir " +
                             checkpoint_dir + ": " + ec.message());
    }
    dataset_digest = DatasetDigest(dataset);
    config_digest = ConfigDigest();
  }

  static Counter* const invalidations = MetricsRegistry::Global().GetCounter(
      metric_names::kCheckpointInvalidations);
  ProgressReporter& progress = ProgressReporter::Global();

  Span run_span("multipass-run");
  run_span.AddArg("keys", static_cast<uint64_t>(keys.size()));

  MultiPassResult result;
  for (size_t i = 0; i < keys.size(); ++i) {
    const KeySpec& key = keys[i];
    Span pass_span("pass");
    pass_span.AddArg("index", static_cast<uint64_t>(i));
    pass_span.AddArg("key", key.name);

    if (checkpointing) {
      Result<PassManifest> manifest = ReadPassManifest(checkpoint_dir, i);
      if (manifest.ok() &&
          ManifestMatches(*manifest, key.name, KeySpecDigest(key),
                          config_digest, dataset_digest)) {
        Result<PairSet> stored = LoadCheckpointedPairs(
            checkpoint_dir, *manifest, dataset.size());
        if (stored.ok()) {
          PassResult pass;
          pass.key_name = key.name;
          pass.pairs = std::move(*stored);
          pass.resumed = true;
          ++result.passes_resumed;
          result.passes.push_back(std::move(pass));
          continue;
        }
        // A manifest whose pairs file is unreadable falls through to a
        // recompute — the checkpoint is advisory, never authoritative.
      } else if (manifest.ok()) {
        // A manifest exists but no longer describes this dataset/key/
        // config: the checkpointed pass is stale and will be recomputed.
        invalidations->Increment();
      }
    }

    progress.BeginPhase(
        StringPrintf("pass %zu/%zu (%s)", i + 1, keys.size(),
                     key.name.c_str()),
        dataset.size());
    Result<PassResult> pass = RunOnePass(dataset, key, theory);
    progress.FinishPhase();
    if (!pass.ok()) return pass.status();
    result.total_seconds += pass->total_seconds;

    if (checkpointing) {
      PassManifest manifest;
      manifest.key_name = key.name;
      manifest.key_digest = KeySpecDigest(key);
      manifest.config_digest = config_digest;
      manifest.dataset_digest = dataset_digest;
      manifest.pairs_file = PairsFileName(i);
      manifest.complete = true;
      MERGEPURGE_RETURN_NOT_OK(
          WritePassCheckpoint(checkpoint_dir, i, manifest, pass->pairs));
    }
    result.passes.push_back(std::move(*pass));
  }

  progress.BeginPhase("transitive closure");
  Timer closure_timer;
  PairSet all_pairs;
  std::vector<const PairSet*> pair_sets;
  pair_sets.reserve(result.passes.size());
  for (const PassResult& pass : result.passes) {
    all_pairs.Merge(pass.pairs);
    pair_sets.push_back(&pass.pairs);
  }
  result.union_pair_count = all_pairs.size();
  result.component_of = TransitiveClosure(pair_sets, dataset.size());
  result.closure_seconds = closure_timer.ElapsedSeconds();
  result.total_seconds += result.closure_seconds;
  progress.FinishPhase();
  return result;
}

}  // namespace mergepurge
