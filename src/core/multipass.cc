#include "core/multipass.h"

#include <filesystem>

#include "core/checkpoint.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "parallel/fragment_scan.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mergepurge {

namespace {

// Fragments per worker and pass. More fragments than workers let the
// pool even out passes of unequal cost; the bands add no comparisons.
constexpr size_t kFragmentsPerWorker = 4;

}  // namespace

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

uint64_t MultiPass::ConfigDigest() const {
  std::string config = StringPrintf(
      "method=%d;window=%zu",
      static_cast<int>(method_), window_);
  if (method_ == Method::kClustering) {
    config += StringPrintf(
        ";clusters=%zu;prefix=%zu;full_key=%d",
        clustering_options_.num_clusters,
        clustering_options_.fixed_key_prefix,
        clustering_options_.sort_with_full_key ? 1 : 0);
  }
  return Fnv1a64(config);
}

Status MultiPass::ScanPasses(const Dataset& dataset,
                             const std::vector<KeySpec>& keys,
                             const std::vector<size_t>& pending,
                             const EquationalTheory& theory,
                             MultiPassResult* result,
                             std::vector<bool>* computed) const {
  if (pending.empty()) return Status::OK();
  static LatencyHistogram* const scan_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kSnmScanUs);
  static Counter* const passes_counter =
      MetricsRegistry::Global().GetCounter(metric_names::kSnmPasses);
  ProgressReporter& progress = ProgressReporter::Global();
  const bool clustering = method_ == Method::kClustering;

  // Order one key at a time: each key's strings are freed before the
  // next key is built, which keeps peak memory at one key's worth.
  const size_t workers = AvailableCpus();
  std::vector<std::vector<TupleId>> orders(pending.size());
  std::vector<FragmentScanJob> jobs(pending.size());
  for (size_t k = 0; k < pending.size(); ++k) {
    const size_t i = pending[k];
    Span span("pass");
    span.AddArg("index", static_cast<uint64_t>(i));
    span.AddArg("key", keys[i].name);
    progress.BeginPhase(StringPrintf("%s %zu/%zu (%s)",
                                     clustering ? "cluster" : "sort", i + 1,
                                     keys.size(), keys[i].name.c_str()));
    jobs[k].order = &orders[k];
    if (clustering) {
      Result<ClusteredOrder> clustered = ClusterOrder(
          dataset, keys[i], clustering_options_, &result->passes[i]);
      if (!clustered.ok()) return clustered.status();
      jobs[k].fragments = clustered->Fragments();
      orders[k] = std::move(clustered->order);
    } else {
      orders[k] = SortedNeighborhood::KeyAndSort(dataset, keys[i],
                                                 &result->passes[i]);
      jobs[k].fragments = MakeOverlappingFragments(
          dataset.size(), workers * kFragmentsPerWorker, window_);
    }
    progress.FinishPhase();
  }

  progress.BeginPhase(
      StringPrintf("window scan (%zu passes, %zu workers)", pending.size(),
                   workers),
      pending.size() * dataset.size());
  FragmentScanReport scan;
  {
    Span span("window-scan");
    span.AddArg("passes", static_cast<uint64_t>(pending.size()));
    span.AddArg("workers", static_cast<uint64_t>(workers));
    scan = ScanFragments(
        dataset, window_, jobs, [&theory] { return theory.Clone(); },
        workers);
  }
  progress.FinishPhase();

  for (size_t k = 0; k < pending.size(); ++k) {
    FragmentScanResult& job = scan.jobs[k];
    if (!job.complete) continue;
    PassResult& pass = result->passes[pending[k]];
    pass.pairs = std::move(job.pairs);
    pass.windows = job.stats.windows;
    pass.comparisons = job.stats.comparisons;
    pass.matches = job.stats.matches;
    pass.scan_seconds = job.busy_seconds;
    pass.total_seconds = pass.create_keys_seconds + pass.cluster_seconds +
                         pass.sort_seconds + pass.scan_seconds;
    scan_us->Record(job.busy_seconds * 1e6);
    passes_counter->Increment();
    (*computed)[pending[k]] = true;
  }
  return scan.status;
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
  if (window_ < 2) return Status::InvalidArgument("window must be >= 2");
  for (const KeySpec& key : keys) {
    MERGEPURGE_RETURN_NOT_OK(KeyBuilder(key).Validate(dataset.schema()));
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
  Timer wall;

  MultiPassResult result;
  result.passes.resize(keys.size());
  std::vector<size_t> pending;  // Passes to compute, in pass order.
  for (size_t i = 0; i < keys.size(); ++i) {
    PassResult& pass = result.passes[i];
    pass.key_name = keys[i].name;
    if (checkpointing) {
      Result<PassManifest> manifest = ReadPassManifest(checkpoint_dir, i);
      if (manifest.ok() &&
          ManifestMatches(*manifest, keys[i].name, KeySpecDigest(keys[i]),
                          config_digest, dataset_digest)) {
        Result<PairSet> stored = LoadCheckpointedPairs(
            checkpoint_dir, *manifest, dataset.size());
        if (stored.ok()) {
          pass.pairs = std::move(*stored);
          pass.resumed = true;
          ++result.passes_resumed;
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
    pending.push_back(i);
  }

  std::vector<bool> computed(keys.size(), false);
  const Status status =
      ScanPasses(dataset, keys, pending, theory, &result, &computed);

  // Checkpoints land in pass order, and only for passes that ran to
  // completion: a resumed run never loads a partial pair set.
  if (checkpointing) {
    for (size_t i : pending) {
      if (!computed[i]) continue;
      const PassResult& pass = result.passes[i];
      PassManifest manifest;
      manifest.key_name = keys[i].name;
      manifest.key_digest = KeySpecDigest(keys[i]);
      manifest.config_digest = config_digest;
      manifest.dataset_digest = dataset_digest;
      manifest.pairs_file = PairsFileName(i);
      manifest.complete = true;
      MERGEPURGE_RETURN_NOT_OK(
          WritePassCheckpoint(checkpoint_dir, i, manifest, pass.pairs));
    }
  }
  MERGEPURGE_RETURN_NOT_OK(status);

  progress.BeginPhase("transitive closure");
  // The closure over "a union of all pairs discovered by all independent
  // runs, with no duplicates" (§2.4): the passes' runs merged, whose size
  // is the distinct-pair count.
  Timer closure_timer;
  PairSet all_pairs;
  {
    Span span("distinct-pairs");
    for (const PassResult& pass : result.passes) all_pairs.Merge(pass.pairs);
    result.union_pair_count = all_pairs.size();
  }
  result.component_of = TransitiveClosure({&all_pairs}, dataset.size());
  result.closure_seconds = closure_timer.ElapsedSeconds();
  progress.FinishPhase();
  result.total_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace mergepurge
