#include "service/match_service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/fs.h"
#include "util/timer.h"

namespace mergepurge {

// RAII lease of a theory instance from the pool (see header: theories are
// not shareable across threads, so each in-flight request gets its own).
class MatchService::TheoryLease {
 public:
  explicit TheoryLease(const MatchService* service) : service_(service) {
    {
      MutexLock lock(service_->theory_mu_);
      if (!service_->theory_pool_.empty()) {
        theory_ = std::move(service_->theory_pool_.back());
        service_->theory_pool_.pop_back();
      }
    }
    if (theory_ == nullptr) theory_ = service_->theory_factory_();
  }

  ~TheoryLease() {
    MutexLock lock(service_->theory_mu_);
    service_->theory_pool_.push_back(std::move(theory_));
  }

  EquationalTheory& operator*() const { return *theory_; }

 private:
  const MatchService* service_;
  std::unique_ptr<EquationalTheory> theory_;
};

const char* MatchService::LifecycleName(Lifecycle lifecycle) {
  switch (lifecycle) {
    case Lifecycle::kRecovering:
      return "recovering";
    case Lifecycle::kServing:
      return "serving";
    case Lifecycle::kFailed:
      return "failed";
  }
  return "failed";
}

MatchService::MatchService(MatchServiceOptions options,
                           TheoryFactory theory_factory)
    : options_(std::move(options)),
      theory_factory_(std::move(theory_factory)),
      engine_(options_.engine) {
  if (!options_.durability.data_dir.empty()) {
    // Recovery runs off-thread so the process can bind its socket and
    // answer health ("recovering") while a large WAL tail replays; the
    // lifecycle gate keeps upserts out until the replay lands.
    lifecycle_.store(Lifecycle::kRecovering, std::memory_order_release);
    {
      MutexLock lock(recovery_mu_);
      recovery_done_ = false;
    }
    recovery_thread_ = std::thread([this] { RunRecovery(); });
  }
  batcher_ = std::make_unique<UpsertBatcher>(
      options_.batcher, [this](std::vector<Record> records) {
        return CommitBatch(std::move(records));
      });
}

void MatchService::RunRecovery() {
  if (options_.durability.recovery_delay_for_testing_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        options_.durability.recovery_delay_for_testing_ms));
  }
  Status status = InitDurability();
  // Lifecycle first (one-way transition, release), then the completion
  // signal: a WaitForRecovery caller that wakes observes the final
  // state.
  lifecycle_.store(status.ok() ? Lifecycle::kServing : Lifecycle::kFailed,
                   std::memory_order_release);
  {
    MutexLock lock(recovery_mu_);
    init_status_ = std::move(status);
    recovery_done_ = true;
  }
  recovery_cv_.NotifyAll();
}

Status MatchService::WaitForRecovery() const {
  MutexLock lock(recovery_mu_);
  while (!recovery_done_) recovery_cv_.Wait(recovery_mu_);
  return init_status_;
}

Status MatchService::InitDurability() {
  const DurabilityOptions& durability = options_.durability;
  MERGEPURGE_RETURN_NOT_OK(MakeDirs(durability.data_dir));
  const uint64_t config_digest = EngineConfigDigest(options_.engine);
  Timer recovery_timer;

  // The constructor has no concurrent readers yet; the writer lock is
  // held anyway so the thread-safety analysis covers the engine writes.
  {
    WriterLock lock(engine_mu_);

    Result<SnapshotState> snapshot =
        LoadNewestSnapshot(durability.data_dir, config_digest);
    if (snapshot.ok()) {
      recovery_.snapshot_loaded = true;
      recovery_.snapshot_seq = snapshot->seq;
      recovery_.snapshot_records = snapshot->records.size();
      applied_seq_ = snapshot->seq;
      MERGEPURGE_RETURN_NOT_OK(engine_.Restore(
          std::move(snapshot->records), std::move(snapshot->pairs)));
    } else if (snapshot.status().code() != StatusCode::kNotFound) {
      return snapshot.status();
    }

    WalReadStats wal_stats;
    Result<std::vector<WalBatch>> tail = ReadWalForRecovery(
        durability.data_dir, applied_seq_, &wal_stats);
    if (!tail.ok()) return tail.status();
    recovery_.truncated_bytes = wal_stats.truncated_bytes;
    TheoryLease theory(this);
    for (WalBatch& batch : *tail) {
      Dataset replay(engine_.records().schema().num_fields() > 0
                         ? engine_.records().schema()
                         : employee::MakeSchema());
      replay.Reserve(batch.records.size());
      for (Record& record : batch.records) replay.Append(std::move(record));
      // CommitBatch logs only batches the engine accepts, so a replay
      // the engine rejects means the log and the engine disagree:
      // serving on would lose or reorder acknowledged writes.
      Result<uint64_t> added = engine_.AddBatch(replay, *theory);
      if (!added.ok()) {
        return Status::Internal("WAL replay of seq " +
                                std::to_string(batch.seq) + " failed: " +
                                added.status().ToString());
      }
      applied_seq_ = batch.seq;
      ++recovery_.batches_replayed;
      recovery_.records_replayed += replay.size();
    }
    recovery_.last_seq = applied_seq_;
  }
  recovery_.recovery_ms = recovery_timer.ElapsedSeconds() * 1e3;

  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter(metric_names::kServiceRecoveryBatchesReplayed)
      ->Add(recovery_.batches_replayed);
  registry.GetCounter(metric_names::kServiceRecoveryRecordsReplayed)
      ->Add(recovery_.records_replayed);
  registry.GetCounter(metric_names::kServiceRecoveryTruncatedBytes)
      ->Add(recovery_.truncated_bytes);
  registry.GetHistogram(metric_names::kServiceRecoveryUs)
      ->Record(recovery_.recovery_ms * 1e3);

  wal_ = std::make_unique<WalWriter>(durability.fsync);
  uint64_t next_seq = 0;
  {
    WriterLock lock(engine_mu_);
    next_seq = applied_seq_ + 1;
  }
  MERGEPURGE_RETURN_NOT_OK(wal_->Open(durability.data_dir, next_seq));

  Snapshotter::Options snap_options;
  snap_options.dir = durability.data_dir;
  snap_options.config_digest = config_digest;
  snap_options.every_batches = durability.snapshot_every_batches;
  snap_options.interval_ms = durability.snapshot_interval_ms;
  snap_options.keep_wal = durability.keep_wal;
  snapshotter_ = std::make_unique<Snapshotter>(
      std::move(snap_options),
      [this](SnapshotState* out) {
        GatedReaderLock lock(*this);
        if (engine_.size() == 0) return false;
        out->seq = applied_seq_;
        out->records = engine_.records();
        out->pairs = engine_.pairs();
        return true;
      },
      [this](uint64_t seq) { (void)wal_->TruncateThrough(seq); });
  snapshotter_->Start();
  return Status::OK();
}

MatchService::~MatchService() { Drain(); }

MatchService::GatedReaderLock::GatedReaderLock(const MatchService& service)
    : service_(service) {
  // Hold off while the writer is waiting (see writer_waiting_ in the
  // header); otherwise a tight reader loop starves commits forever.
  while (service_.writer_waiting_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  service_.engine_mu_.LockShared();
}

MatchService::GatedReaderLock::~GatedReaderLock() {
  service_.engine_mu_.UnlockShared();
}

Result<MatchService::MatchOutcome> MatchService::Match(
    const Record& record) const {
  static LatencyHistogram* const match_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kServiceMatchUs);
  static Counter* const match_requests =
      MetricsRegistry::Global().GetCounter(
          metric_names::kServiceMatchRequests);
  Timer timer;
  match_requests->Increment();

  MatchOutcome outcome;
  {
    GatedReaderLock lock(*this);
    TheoryLease theory(this);
    Result<ProbeResult> probe = engine_.MatchOnly(record, *theory);
    if (!probe.ok()) return probe.status();
    outcome.matches = std::move(probe->matches);
    if (!outcome.matches.empty()) {
      outcome.entities.reserve(outcome.matches.size());
      for (TupleId t : outcome.matches) {
        outcome.entities.push_back(engine_.Label(t));
      }
      std::sort(outcome.entities.begin(), outcome.entities.end());
      outcome.entities.erase(
          std::unique(outcome.entities.begin(), outcome.entities.end()),
          outcome.entities.end());
      outcome.entity = outcome.entities.front();
    }
  }
  match_us->Record(static_cast<double>(timer.ElapsedMicros()));
  return outcome;
}

Result<MatchService::UpsertOutcome> MatchService::Upsert(
    std::vector<Record> records) {
  static LatencyHistogram* const upsert_us =
      MetricsRegistry::Global().GetHistogram(
          metric_names::kServiceUpsertUs);
  static Counter* const upsert_requests =
      MetricsRegistry::Global().GetCounter(
          metric_names::kServiceUpsertRequests);
  static Counter* const upsert_records =
      MetricsRegistry::Global().GetCounter(
          metric_names::kServiceUpsertRecords);
  Timer timer;
  upsert_requests->Increment();
  upsert_records->Add(records.size());

  // The server refuses with a typed "recovering" error before getting
  // here; a direct caller (tests, embedders) instead blocks until
  // recovery lands — the observable behaviour the old synchronous
  // constructor gave — so an upsert can never race the recovery
  // thread's engine writes or hit a not-yet-open WAL. A failed recovery
  // refuses: serving it could re-lose an acknowledged write.
  if (lifecycle() == Lifecycle::kRecovering) (void)WaitForRecovery();
  if (lifecycle() != Lifecycle::kServing) {
    return Status::InvalidArgument(
        std::string("service is not serving (") +
        LifecycleName(lifecycle()) + ")");
  }

  std::future<Result<UpsertSlice>> future =
      batcher_->Submit(std::move(records));
  Result<UpsertSlice> slice = future.get();
  if (!slice.ok()) return slice.status();

  UpsertOutcome outcome;
  outcome.entities = std::move(slice->entities);
  outcome.base_tid = slice->base_tid;
  outcome.merges = std::move(slice->merges);
  outcome.new_pairs =
      last_batch_new_pairs_.load(std::memory_order_relaxed);
  upsert_us->Record(static_cast<double>(timer.ElapsedMicros()));
  return outcome;
}

Result<BatchCommit> MatchService::CommitBatch(std::vector<Record> records) {
  // Stage attribution (metric_names.h): the WAL records its own
  // wal_append/wal_fsync split; apply (split into the engine's insert,
  // scan and union stages) and label_rebuild are timed here.
  // Every stage gets exactly one sample per committed batch — with
  // durability off the WAL stages record 0 µs so the counts (and the
  // p50 decomposition of service.upsert_us) stay comparable.
  static LatencyHistogram* const stage_apply_us =
      MetricsRegistry::Global().GetHistogram(
          metric_names::kServiceStageApplyUs);
  static LatencyHistogram* const stage_insert_us =
      MetricsRegistry::Global().GetHistogram(
          metric_names::kServiceStageInsertUs);
  static LatencyHistogram* const stage_scan_us =
      MetricsRegistry::Global().GetHistogram(
          metric_names::kServiceStageScanUs);
  static LatencyHistogram* const stage_union_us =
      MetricsRegistry::Global().GetHistogram(
          metric_names::kServiceStageUnionUs);
  static LatencyHistogram* const stage_label_rebuild_us =
      MetricsRegistry::Global().GetHistogram(
          metric_names::kServiceStageLabelRebuildUs);
  static Gauge* const records_resident = MetricsRegistry::Global().GetGauge(
      metric_names::kServiceRecordsResident);
  static Gauge* const pairs_resident = MetricsRegistry::Global().GetGauge(
      metric_names::kServicePairsResident);
  static Gauge* const components_resident =
      MetricsRegistry::Global().GetGauge(
          metric_names::kServiceComponentsResident);

  // Validate before the WAL append, so the log only ever holds batches
  // the engine accepts: a rejected batch reaches neither the log nor the
  // engine, and recovery can treat any replay failure as corruption.
  // Only this thread writes the engine, so the schema and key checks
  // still hold when AddBatch runs below.
  Dataset batch;
  {
    GatedReaderLock lock(*this);
    batch = Dataset(engine_.records().schema().num_fields() > 0
                        ? engine_.records().schema()
                        : employee::MakeSchema());
    batch.Reserve(records.size());
    for (Record& record : records) batch.Append(std::move(record));
    MERGEPURGE_RETURN_NOT_OK(engine_.ValidateBatch(batch));
  }

  // Write-ahead: the batch must be durable (per the fsync policy)
  // before any of it becomes visible, because the moment AddBatch runs,
  // Match results reflect it — and an acknowledgement must survive a
  // crash. The append runs outside the engine lock so readers never
  // wait on an fsync. A WAL failure fails the whole batch (the clients
  // see an error and nothing is applied) and latches the writer
  // fail-stop — see WalWriter::Commit.
  uint64_t seq = 0;
  if (wal_ != nullptr) {
    Result<uint64_t> committed = wal_->Commit(batch.records());
    if (!committed.ok()) return committed.status();
    seq = *committed;
  } else {
    static LatencyHistogram* const stage_wal_append_us =
        MetricsRegistry::Global().GetHistogram(
            metric_names::kServiceStageWalAppendUs);
    static LatencyHistogram* const stage_wal_fsync_us =
        MetricsRegistry::Global().GetHistogram(
            metric_names::kServiceStageWalFsyncUs);
    stage_wal_append_us->Record(0.0);
    stage_wal_fsync_us->Record(0.0);
  }

  BatchCommit result;
  {
    writer_waiting_.fetch_add(1, std::memory_order_acq_rel);
    WriterLock lock(engine_mu_);
    writer_waiting_.fetch_sub(1, std::memory_order_acq_rel);

    TheoryLease theory(this);
    const TupleId first_new = static_cast<TupleId>(engine_.size());
    Timer stage_timer;
    Result<uint64_t> added = engine_.AddBatch(batch, *theory);
    stage_apply_us->Record(static_cast<double>(stage_timer.ElapsedMicros()));
    if (wal_ != nullptr) applied_seq_ = seq;
    if (!added.ok()) return added.status();
    const IncrementalMergePurge::StageTimes& stages =
        engine_.last_batch_stage_times();
    stage_insert_us->Record(static_cast<double>(stages.insert_us));
    stage_scan_us->Record(static_cast<double>(stages.scan_us));
    stage_union_us->Record(static_cast<double>(stages.union_us));
    last_batch_new_pairs_.store(*added, std::memory_order_relaxed);
    // The batch's labels and its closure delta: O(batch) label reads,
    // still exclusive so they describe exactly this commit.
    stage_timer.Restart();
    result.base_tid = first_new;
    result.labels.reserve(batch.size());
    for (TupleId t = first_new; t < engine_.size(); ++t) {
      result.labels.push_back(engine_.Label(t));
    }
    result.merges = engine_.LastBatchMerges();
    stage_label_rebuild_us->Record(
        static_cast<double>(stage_timer.ElapsedMicros()));
    // Resident sizes, refreshed while exclusive so the gauges always
    // describe a committed state (readers of the gauges take no lock).
    records_resident->Set(static_cast<double>(engine_.size()));
    pairs_resident->Set(static_cast<double>(engine_.pairs().size()));
    components_resident->Set(static_cast<double>(engine_.NumEntities()));
  }
  // Outside engine_mu_: the snapshotter lock is a leaf, never nested
  // inside the engine lock (docs/concurrency.md).
  if (snapshotter_ != nullptr) snapshotter_->NotifyBatch();
  return result;
}

MatchService::Stats MatchService::GetStats() const {
  GatedReaderLock lock(*this);
  Stats stats;
  stats.records = engine_.size();
  stats.entities = engine_.NumEntities();
  stats.pairs = engine_.pairs().size();
  return stats;
}

MatchService::DurabilityInfo MatchService::GetDurability() const {
  DurabilityInfo info;
  if (wal_ == nullptr) return info;
  info.enabled = true;
  info.recovery = recovery_;
  info.snapshot_seq =
      snapshotter_ != nullptr ? snapshotter_->last_saved_seq() : 0;
  if (info.snapshot_seq < recovery_.snapshot_seq) {
    info.snapshot_seq = recovery_.snapshot_seq;
  }
  Status wal_health = wal_->health();
  info.wal_failed = !wal_health.ok();
  if (info.wal_failed) info.wal_error = wal_health.ToString();
  info.wal_open_segment_bytes = wal_->open_segment_bytes();
  if (snapshotter_ != nullptr) {
    info.snapshot_age_ms = snapshotter_->ms_since_last_save();
    // Keep the gauge fresh: it otherwise only moves when a save lands.
    MetricsRegistry::Global()
        .GetGauge(metric_names::kServiceSnapshotAgeMs)
        ->Set(info.snapshot_age_ms);
  }
  {
    GatedReaderLock lock(*this);
    info.applied_seq = applied_seq_;
  }
  return info;
}

Status MatchService::SnapshotNow() {
  if (snapshotter_ == nullptr) {
    return Status::InvalidArgument("durability is not enabled");
  }
  return snapshotter_->SnapshotNow();
}

void MatchService::Drain() {
  // Recovery must land (or fail) before teardown: the recovery thread
  // owns wal_/snapshotter_ construction until then.
  (void)WaitForRecovery();
  if (recovery_thread_.joinable()) recovery_thread_.join();
  batcher_->Drain();
  const bool crashed = crashed_.load(std::memory_order_relaxed);
  if (snapshotter_ != nullptr) {
    // A simulated crash must leave the data dir exactly as a dead
    // process would: no parting snapshot, no WAL truncation.
    snapshotter_->Stop(/*final_snapshot=*/!crashed);
  }
  if (wal_ != nullptr) wal_->Close();
  if (crashed) return;
  // Flush the pooled theories' batched rule statistics into the global
  // registry so the final run report carries them.
  MutexLock lock(theory_mu_);
  for (const auto& theory : theory_pool_) theory->FlushMetrics();
}

Dataset MatchService::CopyRecords() const {
  GatedReaderLock lock(*this);
  return engine_.records();
}

std::vector<uint32_t> MatchService::ComponentLabels() const {
  GatedReaderLock lock(*this);
  return engine_.ComponentLabels();
}

std::vector<size_t> MatchService::committed_batch_sizes() const {
  return batcher_->committed_batch_sizes();
}

}  // namespace mergepurge
