// The stable metric name catalog. Names are dot-delimited,
// lowercase, and NEVER renamed once shipped — downstream perf tooling
// (bench/BENCH_snm.json trajectories, tools/validate_report) keys on them.
// New metrics may be added freely; document additions in
// docs/observability.md.
//
// One family takes a dynamic suffix:
//   rules.fired.<rule-id>          one counter per equational-theory rule

#ifndef MERGEPURGE_OBS_METRIC_NAMES_H_
#define MERGEPURGE_OBS_METRIC_NAMES_H_

namespace mergepurge {

class MetricsRegistry;

namespace metric_names {

// --- Generator (src/gen). ---
inline constexpr char kGenRecords[] = "gen.records";
inline constexpr char kGenDuplicates[] = "gen.duplicates";

// --- Window scan / SNM merge phase (both methods, serial + parallel).
// Counts COMMITTED work only: a fragment flushes when its scan succeeds,
// and a fragment whose scan throws flushes nothing (see
// docs/observability.md). ---
inline constexpr char kSnmWindows[] = "snm.windows";
inline constexpr char kSnmComparisons[] = "snm.comparisons";
inline constexpr char kSnmMatches[] = "snm.matches";
inline constexpr char kSnmPasses[] = "snm.passes";
inline constexpr char kSnmScanUs[] = "snm.scan_us";          // Histogram.
inline constexpr char kSnmSortUs[] = "snm.sort_us";          // Histogram.

// --- Equational theories (src/rules). ---
inline constexpr char kRulesFiredPrefix[] = "rules.fired.";  // + rule id.
inline constexpr char kRulesDistanceCalls[] = "rules.distance_calls";
inline constexpr char kRulesEarlyExits[] = "rules.early_exits";

// --- Transitive closure (union-find). ---
inline constexpr char kClosureUnions[] = "closure.unions";
inline constexpr char kClosureUnionCalls[] = "closure.union_calls";
inline constexpr char kClosurePathCompressions[] =
    "closure.path_compressions";
inline constexpr char kClosureUs[] = "closure.us";           // Histogram.

// --- Fragment scans (src/parallel/fragment_scan): fragments whose scan
// succeeded. ---
inline constexpr char kParallelTasks[] = "parallel.tasks";

// --- Fault injection (src/util/fault_injector). ---
inline constexpr char kFaultsTripped[] = "faults.tripped";

// --- Checkpoint/resume (src/core/checkpoint). ---
inline constexpr char kCheckpointSaves[] = "checkpoint.saves";
inline constexpr char kCheckpointLoads[] = "checkpoint.loads";
inline constexpr char kCheckpointInvalidations[] =
    "checkpoint.invalidations";

// --- Online match/upsert service (src/service). Counted at the server,
// not the client: loadgen-side latencies live under service.client.*. ---
inline constexpr char kServiceConnections[] = "service.connections";
inline constexpr char kServiceConnectionsRejected[] =
    "service.connections_rejected";
inline constexpr char kServiceRequests[] = "service.requests";
inline constexpr char kServiceMatchRequests[] = "service.match_requests";
inline constexpr char kServiceUpsertRequests[] = "service.upsert_requests";
inline constexpr char kServiceUpsertRecords[] = "service.upsert_records";
inline constexpr char kServiceErrors[] = "service.errors";
inline constexpr char kServiceBatches[] = "service.batches";
inline constexpr char kServiceRequestUs[] = "service.request_us";   // Hist.
inline constexpr char kServiceMatchUs[] = "service.match_us";       // Hist.
inline constexpr char kServiceUpsertUs[] = "service.upsert_us";     // Hist.
// Time an upsert spends queued in the batcher before its batch commits.
inline constexpr char kServiceQueueWaitUs[] =
    "service.queue_wait_us";                                        // Hist.
// Records per committed batch (coalescing effectiveness).
inline constexpr char kServiceBatchRecords[] =
    "service.batch_records";                                        // Hist.

// --- Commit-pipeline stage attribution. One sample per committed batch
// in every stage histogram, so their counts all equal service.batches
// and their p50s decompose service.upsert_us end to end (the ci.sh
// stats e2e asserts both). queue_wait here is the OLDEST request's wait
// (the batch-level number that chains with the downstream stages);
// service.queue_wait_us above stays per-request. ---
inline constexpr char kServiceStageQueueWaitUs[] =
    "service.stage.queue_wait_us";                                  // Hist.
inline constexpr char kServiceStageWalAppendUs[] =
    "service.stage.wal_append_us";                                  // Hist.
inline constexpr char kServiceStageWalFsyncUs[] =
    "service.stage.wal_fsync_us";                                   // Hist.
inline constexpr char kServiceStageApplyUs[] =
    "service.stage.apply_us";                                       // Hist.
// apply_us split by the engine's AddBatch stages (insert: conditioning,
// keys and per-key inserts; scan: the window scans; union: pair set and
// closure). Their times sum to apply_us's, less ValidateBatch; the six
// stages above and below stay the decomposition of service.upsert_us.
inline constexpr char kServiceStageInsertUs[] =
    "service.stage.insert_us";                                      // Hist.
inline constexpr char kServiceStageScanUs[] =
    "service.stage.scan_us";                                        // Hist.
inline constexpr char kServiceStageUnionUs[] =
    "service.stage.union_us";                                       // Hist.
inline constexpr char kServiceStageLabelRebuildUs[] =
    "service.stage.label_rebuild_us";                               // Hist.
inline constexpr char kServiceStageAckUs[] =
    "service.stage.ack_us";                                         // Hist.

// --- Resident-state gauges, refreshed after every committed batch (and
// on snapshot/WAL activity for the last two). These answer "how big is
// the live engine right now" without taking the engine lock. ---
inline constexpr char kServiceRecordsResident[] =
    "service.records_resident";                                     // Gauge.
inline constexpr char kServicePairsResident[] =
    "service.pairs_resident";                                       // Gauge.
inline constexpr char kServiceComponentsResident[] =
    "service.components_resident";                                  // Gauge.
inline constexpr char kServiceWalOpenSegmentBytes[] =
    "service.wal.open_segment_bytes";                               // Gauge.
inline constexpr char kServiceSnapshotAgeMs[] =
    "service.snapshot.age_ms";                                      // Gauge.

// --- Durability: write-ahead log + snapshots (src/service/wal,
// src/service/snapshot; see docs/durability.md). ---
inline constexpr char kServiceWalAppends[] = "service.wal.appends";
inline constexpr char kServiceWalFsyncs[] = "service.wal.fsyncs";
inline constexpr char kServiceWalBytes[] = "service.wal.bytes";
inline constexpr char kServiceWalSegmentsRemoved[] =
    "service.wal.segments_removed";
inline constexpr char kServiceWalAppendUs[] =
    "service.wal.append_us";                                        // Hist.
inline constexpr char kServiceSnapshotSaves[] = "service.snapshot.saves";
inline constexpr char kServiceSnapshotFailures[] =
    "service.snapshot.failures";
inline constexpr char kServiceSnapshotWriteUs[] =
    "service.snapshot.write_us";                                    // Hist.
// Startup recovery (snapshot load + WAL tail replay).
inline constexpr char kServiceRecoveryBatchesReplayed[] =
    "service.recovery.batches_replayed";
inline constexpr char kServiceRecoveryRecordsReplayed[] =
    "service.recovery.records_replayed";
inline constexpr char kServiceRecoveryTruncatedBytes[] =
    "service.recovery.truncated_bytes";
inline constexpr char kServiceRecoveryUs[] =
    "service.recovery.us";                                          // Hist.

// --- Loadgen client-side measurements (tools/mergepurge_loadgen). ---
inline constexpr char kServiceClientRequestUs[] =
    "service.client.request_us";                                    // Hist.
inline constexpr char kServiceClientMatchUs[] =
    "service.client.match_us";                                      // Hist.
inline constexpr char kServiceClientUpsertUs[] =
    "service.client.upsert_us";                                     // Hist.
// Reconnect/resend attempts after transient transport errors (server
// restart mid-run); see the loadgen backoff loop.
inline constexpr char kServiceClientRetries[] = "service.client.retries";

// --- Shard coordinator (src/shard; see docs/sharding.md). Counted in
// the coordinator process; the per-shard engines report the ordinary
// service.* set in their own registries. ---
// Owner-routed record admissions (each record counts once, on its
// owner set — replicas are counted separately below).
inline constexpr char kCoordRouteRecords[] = "coord.route_records";
// Boundary-band replicas shipped to neighboring shards (§4
// fragmentation volume).
inline constexpr char kCoordReplicaRecords[] = "coord.replica_records";
// Per-shard-batch retry attempts (reconnect/backoff via CallWithRetry).
inline constexpr char kCoordShardRetries[] = "coord.shard_retries";
// Wall time of one upsert's full shard fan-out (route + send + collect).
inline constexpr char kCoordFanoutUs[] = "coord.fanout_us";      // Hist.
// Time folding shard responses into the global closure.
inline constexpr char kCoordClosureMergeUs[] =
    "coord.closure_merge_us";                                    // Hist.
// Global ids admitted / distinct global entities after closure.
inline constexpr char kCoordGlobalRecords[] =
    "coord.global_records";                                      // Gauge.
inline constexpr char kCoordGlobalEntities[] =
    "coord.global_entities";                                     // Gauge.

}  // namespace metric_names

// Registers every catalogued fixed-name metric in `registry` so snapshots
// and run reports always contain the full key set, zero-valued when a
// stage never ran (e.g. checkpoint.loads in a run without --resume).
// RunReport calls this on construction; tests call it directly.
void PreregisterStandardMetrics(MetricsRegistry& registry);

}  // namespace mergepurge

#endif  // MERGEPURGE_OBS_METRIC_NAMES_H_
