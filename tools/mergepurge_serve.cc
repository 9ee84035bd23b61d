// mergepurge_serve — the online merge/purge service (docs/service.md).
//
// Keeps the multi-pass incremental engine resident and answers match /
// upsert / ping / stats requests over newline-delimited JSON on TCP.
//
//   mergepurge_serve [--port=7733]            (0 = ephemeral port)
//                    [--port-file=PATH]       (write the bound port; lets
//                                              scripts use --port=0)
//                    [--window=10]
//                    [--keys=last-name,first-name,address]
//                    [--rules=theory.rules]   (default: built-in employee
//                                              theory)
//                    [--workers=8]            (connection workers)
//                    [--max-conn=64]          (connection cap)
//                    [--max-line-bytes=1048576]
//                    [--idle-timeout-ms=30000]
//                    [--batch-records=256]    (upsert batcher fill limit)
//                    [--batch-delay-ms=2.0]   (upsert batcher deadline)
//                    [--slow-request-us=0]    (log requests slower than
//                                              this; 0 = off)
//                    [--data-dir=DIR]         (crash durability: WAL +
//                                              snapshots + recovery on
//                                              start; docs/durability.md)
//                    [--fsync=group]          (always | group | none)
//                    [--snapshot-batches=256] (snapshot cadence, batches)
//                    [--snapshot-interval-ms=1000]
//                    [--keep-wal]             (never truncate the WAL;
//                                              recovery audit / CI diff)
//                    [--instance-label=NAME]  (stamped into health/stats
//                                              responses and the report;
//                                              names shards in a
//                                              coordinator deployment)
//                    [--metrics-out=FILE.json] [--trace-out=FILE.json]
//                    [--log-level=LEVEL]
//                    [--rules-check]          (lint the theory at startup;
//                                              lint errors refuse to serve
//                                              — see docs/rule_lints.md)
//
// SIGINT/SIGTERM trigger a graceful drain: stop accepting, finish
// in-flight requests, flush the upsert batcher, then write the
// --metrics-out run report and --trace-out trace before exiting 0.
//
// Exit codes: 0 clean drain, 1 runtime failure, 2 usage error.

#include <cstdio>
#include <fstream>
#include <string>

#include "eval/experiment.h"
#include "keys/standard_keys.h"
#include "obs/drain.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "rules/theory_loader.h"
#include "service/match_service.h"
#include "service/server.h"

using namespace mergepurge;

namespace {

constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

constexpr const char* kUsage =
    "usage: mergepurge_serve [--port=N] [--port-file=PATH] [--window=N] "
    "[--keys=...] [--rules=FILE] [--workers=N] [--max-conn=N] "
    "[--max-line-bytes=N] [--idle-timeout-ms=N] [--batch-records=N] "
    "[--batch-delay-ms=F] [--slow-request-us=N] [--data-dir=DIR] "
    "[--fsync=always|group|none] "
    "[--snapshot-batches=N] [--snapshot-interval-ms=N] [--keep-wal] "
    "[--instance-label=NAME] [--metrics-out=FILE.json] "
    "[--trace-out=FILE.json] [--log-level=LEVEL] [--rules-check]";

constexpr const char* kKnownFlags[] = {
    "port",           "port-file",     "window",
    "keys",           "rules",         "workers",
    "max-conn",       "max-line-bytes", "idle-timeout-ms",
    "batch-records",  "batch-delay-ms", "slow-request-us",
    "metrics-out",
    "trace-out",      "log-level",     "rules-check",
    "data-dir",       "fsync",         "snapshot-batches",
    "snapshot-interval-ms", "keep-wal", "instance-label",
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "mergepurge_serve: %s\n", message.c_str());
  return kExitRuntime;
}

int UsageError(const std::string& message) {
  std::fprintf(stderr, "mergepurge_serve: %s\n%s\n", message.c_str(),
               kUsage);
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  // Before any thread exists, so every thread inherits the blocked mask.
  SignalDrain::Global().Install();
  SignalDrain::Global().set_exit_after_callbacks(false);

  ArgParser args(argc, argv);
  if (!args.status().ok()) return UsageError(args.status().message());
  const std::string unknown = args.FirstUnknownFlag(kKnownFlags);
  if (!unknown.empty()) return UsageError("unknown flag --" + unknown);

  Status log_level = ApplyLogLevelFlag(args);
  if (!log_level.ok()) return UsageError(log_level.message());
  if (args.Has("trace-out")) TraceRecorder::Global().Enable();

  // --- Engine configuration. ---
  MatchServiceOptions service_options;
  Result<std::vector<KeySpec>> keys = KeysFromNames(
      args.GetString("keys", "last-name,first-name,address"));
  if (!keys.ok()) return UsageError(keys.status().message());
  service_options.engine.keys = std::move(*keys);
  Result<size_t> window_flag = WindowFlag(args);
  if (!window_flag.ok()) return UsageError(window_flag.status().message());
  const size_t window = *window_flag;
  service_options.engine.window = window;
  // Remembered for the hello handshake: a coordinator with a different
  // --keys/--window gets a config_mismatch instead of silent mis-routing.
  const std::string topology_keys = CanonicalKeysSpec(
      args.GetString("keys", "last-name,first-name,address"));
  const uint64_t topology_window = static_cast<uint64_t>(window);
  const int64_t batch_records = args.GetInt("batch-records", 256);
  if (batch_records < 1) {
    return UsageError("--batch-records must be >= 1 (got " +
                      args.GetString("batch-records", "") + ")");
  }
  service_options.batcher.max_batch_records =
      static_cast<size_t>(batch_records);
  const double batch_delay_ms = args.GetDouble("batch-delay-ms", 2.0);
  if (batch_delay_ms < 0.0) {
    return UsageError("--batch-delay-ms must be >= 0 (got " +
                      args.GetString("batch-delay-ms", "") + ")");
  }
  service_options.batcher.max_delay_ms = batch_delay_ms;

  // --- Durability configuration. ---
  if (args.Has("data-dir")) {
    service_options.durability.data_dir = args.GetString("data-dir", "");
    if (service_options.durability.data_dir.empty()) {
      return UsageError("--data-dir needs a directory path");
    }
    Result<FsyncPolicy> fsync =
        ParseFsyncPolicy(args.GetString("fsync", "group"));
    if (!fsync.ok()) return UsageError(fsync.status().message());
    service_options.durability.fsync = *fsync;
    const int64_t snapshot_batches = args.GetInt("snapshot-batches", 256);
    if (snapshot_batches < 1) {
      return UsageError("--snapshot-batches must be >= 1 (got " +
                        args.GetString("snapshot-batches", "") + ")");
    }
    service_options.durability.snapshot_every_batches =
        static_cast<uint64_t>(snapshot_batches);
    const int64_t snapshot_interval =
        args.GetInt("snapshot-interval-ms", 1000);
    if (snapshot_interval < 1) {
      return UsageError("--snapshot-interval-ms must be >= 1 (got " +
                        args.GetString("snapshot-interval-ms", "") + ")");
    }
    service_options.durability.snapshot_interval_ms =
        static_cast<int>(snapshot_interval);
    service_options.durability.keep_wal = args.GetBool("keep-wal", false);
  } else if (args.Has("fsync") || args.Has("snapshot-batches") ||
             args.Has("snapshot-interval-ms") || args.Has("keep-wal")) {
    return UsageError(
        "--fsync/--snapshot-batches/--snapshot-interval-ms/--keep-wal "
        "require --data-dir");
  }

  // --- Server configuration. ---
  ServerOptions server_options;
  const int64_t port = args.GetInt("port", 7733);
  if (port < 0 || port > 65535) {
    return UsageError("--port must be in [0, 65535] (got " +
                      args.GetString("port", "") + ")");
  }
  server_options.port = static_cast<uint16_t>(port);
  const int64_t workers = args.GetInt("workers", 8);
  if (workers < 1) {
    return UsageError("--workers must be >= 1 (got " +
                      args.GetString("workers", "") + ")");
  }
  server_options.num_workers = static_cast<size_t>(workers);
  const int64_t max_conn = args.GetInt("max-conn", 64);
  if (max_conn < 1) {
    return UsageError("--max-conn must be >= 1 (got " +
                      args.GetString("max-conn", "") + ")");
  }
  server_options.max_connections = static_cast<size_t>(max_conn);
  const int64_t max_line = args.GetInt("max-line-bytes", 1 << 20);
  if (max_line < 64) {
    return UsageError("--max-line-bytes must be >= 64 (got " +
                      args.GetString("max-line-bytes", "") + ")");
  }
  server_options.max_line_bytes = static_cast<size_t>(max_line);
  const int64_t idle_timeout = args.GetInt("idle-timeout-ms", 30000);
  if (idle_timeout < 0) {
    return UsageError("--idle-timeout-ms must be >= 0 (got " +
                      args.GetString("idle-timeout-ms", "") + ")");
  }
  server_options.idle_timeout_ms = static_cast<int>(idle_timeout);
  const int64_t slow_request_us = args.GetInt("slow-request-us", 0);
  if (slow_request_us < 0) {
    return UsageError("--slow-request-us must be >= 0 (got " +
                      args.GetString("slow-request-us", "") + ")");
  }
  server_options.slow_request_us = static_cast<int>(slow_request_us);
  server_options.instance_label = args.GetString("instance-label", "");
  server_options.topology_keys = topology_keys;
  server_options.topology_window = topology_window;

  // --- Theory: compile once, instantiate per lease. --rules-check lints
  // it first: a service with a linted-broken theory (e.g. one that merges
  // all-blank records) must refuse to start. ---
  Result<LoadedTheory> loaded = LoadCheckedTheory(
      args.GetString("rules", ""), employee::MakeSchema(),
      args.GetBool("rules-check", false), ", refusing to serve");
  if (!loaded.ok()) return Fail(loaded.status().message());

  // The service constructs in the recovering state (durability on) and
  // replays on a background thread; the server starts listening right
  // away so health checks can observe "recovering" while match/upsert
  // are refused with a retryable error.
  MatchService service(std::move(service_options),
                       std::move(loaded->factory));
  Server server(server_options, &service);
  SignalDrain::Global().OnSignal(
      [&server](int) { server.RequestDrain(); });

  Result<uint16_t> bound = server.Start();
  if (!bound.ok()) return Fail(bound.status().ToString());
  std::fprintf(stderr, "mergepurge_serve: listening on %s:%u\n",
               server_options.bind_address.c_str(), *bound);
  if (args.Has("port-file")) {
    std::string port_path = args.GetString("port-file", "");
    std::ofstream port_file(port_path, std::ios::trunc);
    port_file << *bound << "\n";
    if (!port_file.good()) {
      server.RequestDrain();
      server.Join();
      return Fail("cannot write port file: " + port_path);
    }
  }

  Status recovery_status = service.WaitForRecovery();
  if (!recovery_status.ok()) {
    server.RequestDrain();
    server.Join();
    return Fail("recovery failed: " + recovery_status.ToString());
  }
  const MatchService::DurabilityInfo recovered = service.GetDurability();
  if (recovered.enabled) {
    std::fprintf(
        stderr,
        "mergepurge_serve: recovered to seq %llu (snapshot seq %llu, "
        "%llu batches / %llu records replayed, %llu torn bytes cut, "
        "%.1f ms)\n",
        static_cast<unsigned long long>(recovered.recovery.last_seq),
        static_cast<unsigned long long>(recovered.recovery.snapshot_seq),
        static_cast<unsigned long long>(
            recovered.recovery.batches_replayed),
        static_cast<unsigned long long>(
            recovered.recovery.records_replayed),
        static_cast<unsigned long long>(
            recovered.recovery.truncated_bytes),
        recovered.recovery.recovery_ms);
  }

  // Blocks until a drain signal (or RequestDrain) stops the server.
  server.Join();

  MatchService::Stats stats = service.GetStats();
  if (args.Has("metrics-out")) {
    RunReport report("mergepurge_serve");
    report.SetConfig("port", JsonValue(static_cast<uint64_t>(*bound)));
    report.SetConfig(
        "keys", JsonValue(args.GetString(
                    "keys", "last-name,first-name,address")));
    report.SetConfig("window",
                     JsonValue(static_cast<uint64_t>(window)));
    report.SetConfig("workers",
                     JsonValue(static_cast<uint64_t>(workers)));
    report.SetConfig("batch_records",
                     JsonValue(static_cast<uint64_t>(batch_records)));
    report.SetConfig("batch_delay_ms", JsonValue(batch_delay_ms));
    if (args.Has("instance-label")) {
      report.SetConfig("instance_label",
                       JsonValue(args.GetString("instance-label", "")));
    }
    report.SetDataset(stats.records, employee::kNumFields);
    JsonValue service_json = JsonValue::Object();
    service_json.Set("records", JsonValue(stats.records));
    service_json.Set("entities", JsonValue(stats.entities));
    service_json.Set("pairs", JsonValue(stats.pairs));
    service_json.Set("batches", JsonValue(service.batches_committed()));
    service_json.Set("connections",
                     JsonValue(server.connections_accepted()));
    report.SetConfig("service", std::move(service_json));
    if (recovered.enabled) {
      const MatchService::DurabilityInfo final_info =
          service.GetDurability();
      JsonValue durability_json = JsonValue::Object();
      durability_json.Set("data_dir",
                          JsonValue(args.GetString("data-dir", "")));
      durability_json.Set("fsync",
                          JsonValue(args.GetString("fsync", "group")));
      durability_json.Set("applied_seq",
                          JsonValue(final_info.applied_seq));
      durability_json.Set("snapshot_seq",
                          JsonValue(final_info.snapshot_seq));
      JsonValue recovery_json = JsonValue::Object();
      recovery_json.Set("snapshot_loaded",
                        JsonValue(recovered.recovery.snapshot_loaded));
      recovery_json.Set("snapshot_seq",
                        JsonValue(recovered.recovery.snapshot_seq));
      recovery_json.Set("snapshot_records",
                        JsonValue(recovered.recovery.snapshot_records));
      recovery_json.Set("batches_replayed",
                        JsonValue(recovered.recovery.batches_replayed));
      recovery_json.Set("records_replayed",
                        JsonValue(recovered.recovery.records_replayed));
      recovery_json.Set("truncated_bytes",
                        JsonValue(recovered.recovery.truncated_bytes));
      recovery_json.Set("recovery_ms",
                        JsonValue(recovered.recovery.recovery_ms));
      durability_json.Set("recovery", std::move(recovery_json));
      report.SetConfig("durability", std::move(durability_json));
    }
    report.SetOutcome(true);
    report.CaptureMetrics();
    std::string metrics_path = args.GetString("metrics-out", "");
    Status write = report.WriteToFile(metrics_path);
    if (!write.ok()) return Fail(write.ToString());
    std::fprintf(stderr, "wrote run report to %s\n", metrics_path.c_str());
  }
  if (args.Has("trace-out")) {
    std::string trace_path = args.GetString("trace-out", "");
    Status write = TraceRecorder::Global().ExportChromeJson(trace_path);
    if (!write.ok()) return Fail(write.ToString());
    std::fprintf(stderr, "wrote %zu trace spans to %s\n",
                 TraceRecorder::Global().span_count(), trace_path.c_str());
  }
  std::fprintf(stderr,
               "mergepurge_serve: drained (%llu records, %llu entities, "
               "%llu pairs)\n",
               static_cast<unsigned long long>(stats.records),
               static_cast<unsigned long long>(stats.entities),
               static_cast<unsigned long long>(stats.pairs));
  return 0;
}
