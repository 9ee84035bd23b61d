// mergepurge_coord — shard coordinator for the online merge/purge
// service (docs/sharding.md).
//
// Fronts N mergepurge_serve shard engines: routes upserts/matches by
// key range (equi-depth partition fit on a sample), replicates the w-1
// boundary band to neighbor shards so window scans never miss
// cross-boundary pairs, and maintains a global transitive closure over
// coordinator-assigned entity ids. Speaks the identical NDJSON protocol
// upward, so loadgen / mergepurge_top / validate_report work unchanged.
//
//   mergepurge_coord --shards=HOST:PORT,HOST:PORT,...
//                    [--port=7734]            (0 = ephemeral port)
//                    [--port-file=PATH]
//                    [--keys=last-name,first-name,address]
//                    [--window=10]            (must match the shards')
//                    [--histogram-depth=3]    (routing key prefix chars)
//                    [--router-sample=FILE.csv]  (fit the router here;
//                                              default: first upsert)
//                    [--retry-attempts=12]    (per-shard-call retries)
//                    [--workers=8] [--max-conn=64]
//                    [--max-line-bytes=1048576] [--idle-timeout-ms=30000]
//                    [--slow-request-us=0]
//                    [--instance-label=NAME]  (stamped into health/stats)
//                    [--metrics-out=FILE.json] [--trace-out=FILE.json]
//                    [--log-level=LEVEL]
//
// SIGINT/SIGTERM drain gracefully and write the run report.
// Exit codes: 0 clean drain, 1 runtime failure, 2 usage error.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "io/csv.h"
#include "keys/standard_keys.h"
#include "obs/drain.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "service/server.h"
#include "shard/coordinator.h"
#include "util/string_util.h"

using namespace mergepurge;

namespace {

constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

constexpr const char* kUsage =
    "usage: mergepurge_coord --shards=HOST:PORT,... [--port=N] "
    "[--port-file=PATH] [--keys=...] [--window=N] [--histogram-depth=N] "
    "[--router-sample=FILE.csv] [--retry-attempts=N] [--workers=N] "
    "[--max-conn=N] [--max-line-bytes=N] [--idle-timeout-ms=N] "
    "[--slow-request-us=N] [--instance-label=NAME] "
    "[--metrics-out=FILE.json] [--trace-out=FILE.json] "
    "[--log-level=LEVEL]";

constexpr const char* kKnownFlags[] = {
    "shards",         "port",            "port-file",
    "keys",           "window",          "histogram-depth",
    "router-sample",  "retry-attempts",  "workers",
    "max-conn",       "max-line-bytes",  "idle-timeout-ms",
    "slow-request-us", "instance-label", "metrics-out",
    "trace-out",      "log-level",
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "mergepurge_coord: %s\n", message.c_str());
  return kExitRuntime;
}

int UsageError(const std::string& message) {
  std::fprintf(stderr, "mergepurge_coord: %s\n%s\n", message.c_str(),
               kUsage);
  return kExitUsage;
}

// "host:port" or bare "port" (host defaults to loopback).
Result<std::vector<ShardAddress>> ResolveShards(const std::string& spec) {
  std::vector<ShardAddress> shards;
  for (std::string_view entry : SplitView(spec, ',')) {
    ShardAddress address;
    std::string_view port_text = entry;
    const size_t colon = entry.rfind(':');
    if (colon != std::string_view::npos) {
      if (colon == 0) {
        return Status::InvalidArgument("empty host in shard '" +
                                       std::string(entry) + "'");
      }
      address.host = std::string(entry.substr(0, colon));
      port_text = entry.substr(colon + 1);
    }
    int64_t port = 0;
    bool valid = !port_text.empty();
    for (const char c : port_text) {
      if (c < '0' || c > '9' || port > 65535) {
        valid = false;
        break;
      }
      port = port * 10 + (c - '0');
    }
    if (!valid || port < 1 || port > 65535) {
      return Status::InvalidArgument("bad shard port in '" +
                                     std::string(entry) + "'");
    }
    address.port = static_cast<uint16_t>(port);
    shards.push_back(std::move(address));
  }
  if (shards.empty()) {
    return Status::InvalidArgument("--shards needs at least one HOST:PORT");
  }
  return shards;
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

  // --- Coordinator configuration. ---
  if (!args.Has("shards")) {
    return UsageError("--shards is required");
  }
  CoordinatorOptions coord_options;
  Result<std::vector<ShardAddress>> shards =
      ResolveShards(args.GetString("shards", ""));
  if (!shards.ok()) return UsageError(shards.status().message());
  coord_options.shards = std::move(*shards);
  Result<std::vector<KeySpec>> keys = KeysFromNames(
      args.GetString("keys", "last-name,first-name,address"));
  if (!keys.ok()) return UsageError(keys.status().message());
  coord_options.keys = std::move(*keys);
  coord_options.keys_spec = CanonicalKeysSpec(
      args.GetString("keys", "last-name,first-name,address"));
  coord_options.schema = employee::MakeSchema();
  Result<size_t> window_flag = WindowFlag(args);
  if (!window_flag.ok()) return UsageError(window_flag.status().message());
  const size_t window = *window_flag;
  coord_options.window = window;
  const int64_t histogram_depth = args.GetInt("histogram-depth", 3);
  if (histogram_depth < 1 || histogram_depth > 4) {
    return UsageError("--histogram-depth must be in [1, 4] (got " +
                      args.GetString("histogram-depth", "") + ")");
  }
  coord_options.histogram_depth = static_cast<size_t>(histogram_depth);
  const int64_t retry_attempts = args.GetInt("retry-attempts", 12);
  if (retry_attempts < 1) {
    return UsageError("--retry-attempts must be >= 1 (got " +
                      args.GetString("retry-attempts", "") + ")");
  }
  coord_options.retry.max_attempts = static_cast<int>(retry_attempts);

  // --- Server configuration. ---
  ServerOptions server_options;
  const int64_t port = args.GetInt("port", 7734);
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
  // The coordinator's own front door answers hello with the same
  // topology it pushes to its shards.
  server_options.topology_keys = CanonicalKeysSpec(
      args.GetString("keys", "last-name,first-name,address"));
  server_options.topology_window = static_cast<uint64_t>(window);

  CoordService coord(std::move(coord_options));

  // --- Optional eager router fit (otherwise the first upsert fits it). ---
  if (args.Has("router-sample")) {
    const std::string sample_path = args.GetString("router-sample", "");
    Result<Dataset> sample =
        ReadCsvFile(employee::MakeSchema(), sample_path);
    if (!sample.ok()) {
      return Fail("cannot read --router-sample " + sample_path + ": " +
                  sample.status().ToString());
    }
    Status seeded = coord.SeedRouter(sample->records());
    if (!seeded.ok()) {
      return Fail("router fit failed: " + seeded.ToString());
    }
    std::fprintf(stderr,
                 "mergepurge_coord: router fit on %zu sampled records\n",
                 sample->size());
  }

  // --- Shard config handshake: refuse to serve a mismatched fleet.
  // Retries ride out shards still binding or replaying their WAL. ---
  Status verified = coord.VerifyShards();
  if (!verified.ok()) {
    return Fail("shard handshake failed: " + verified.ToString());
  }
  std::fprintf(stderr,
               "mergepurge_coord: %zu shard(s) verified (keys/window)\n",
               coord.num_shards());

  Server server(server_options, &coord);
  SignalDrain::Global().OnSignal(
      [&server](int) { server.RequestDrain(); });

  Result<uint16_t> bound = server.Start();
  if (!bound.ok()) return Fail(bound.status().ToString());
  std::fprintf(stderr,
               "mergepurge_coord: listening on %s:%u, %zu shards\n",
               server_options.bind_address.c_str(), *bound,
               coord.num_shards());
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

  // Blocks until a drain signal (or RequestDrain) stops the server.
  server.Join();

  CoordService::ClosureStats closure = coord.GetClosureStats();
  if (args.Has("metrics-out")) {
    RunReport report("mergepurge_coord");
    report.SetConfig("port", JsonValue(static_cast<uint64_t>(*bound)));
    report.SetConfig("shards",
                     JsonValue(static_cast<uint64_t>(coord.num_shards())));
    report.SetConfig(
        "keys", JsonValue(args.GetString(
                    "keys", "last-name,first-name,address")));
    report.SetConfig("window", JsonValue(static_cast<uint64_t>(window)));
    report.SetConfig("workers", JsonValue(static_cast<uint64_t>(workers)));
    if (args.Has("instance-label")) {
      report.SetConfig("instance_label",
                       JsonValue(args.GetString("instance-label", "")));
    }
    report.SetDataset(closure.records, employee::kNumFields);
    JsonValue service_json = JsonValue::Object();
    service_json.Set("records", JsonValue(closure.records));
    service_json.Set("entities", JsonValue(closure.entities));
    service_json.Set("connections",
                     JsonValue(server.connections_accepted()));
    report.SetConfig("service", std::move(service_json));
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
               "mergepurge_coord: drained (%llu records, %llu entities "
               "global)\n",
               static_cast<unsigned long long>(closure.records),
               static_cast<unsigned long long>(closure.entities));
  return 0;
}
