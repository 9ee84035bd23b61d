// mergepurge_top — live console for a running mergepurge_serve.
//
// Polls {"op":"stats"} (and {"op":"health"} for the lifecycle/WAL view),
// computes deltas between successive polls, and renders a one-screen
// summary: request rates, latency quantiles, commit-pipeline stage
// attribution, resident engine sizes, and durability state. The server
// feeds its own 10-second snapshot ring on every stats request, so a
// steadily polling top is also what makes the server-side "window"
// section meaningful.
//
//   mergepurge_top --port=N [--host=127.0.0.1]
//                  [--interval-ms=1000]  (poll cadence)
//                  [--count=0]           (stop after N polls; 0 = forever)
//                  [--json]              (emit each raw stats response as
//                                         one JSON line on stdout instead
//                                         of the screen view; scripts and
//                                         the CI round-trip use this)
//
// Exit codes: 0 clean (count reached or SIGINT-initiated drain), 1 when
// the server cannot be reached or answers with an error, 2 usage error.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "eval/experiment.h"
#include "obs/drain.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "service/client.h"
#include "util/timer.h"

using namespace mergepurge;

namespace {

constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

constexpr const char* kUsage =
    "usage: mergepurge_top --port=N [--host=ADDR] [--interval-ms=N] "
    "[--count=N] [--json]";

constexpr const char* kKnownFlags[] = {
    "port", "host", "interval-ms", "count", "json",
};

int UsageError(const std::string& message) {
  std::fprintf(stderr, "mergepurge_top: %s\n%s\n", message.c_str(), kUsage);
  return kExitUsage;
}

// Dotted-path lookup into a stats document ("window/histograms/...").
const JsonValue* FindPath(const JsonValue& root,
                          std::initializer_list<const char*> path) {
  const JsonValue* node = &root;
  for (const char* key : path) {
    if (node == nullptr) return nullptr;
    node = node->Find(key);
  }
  return node;
}

double NumberAt(const JsonValue& root,
                std::initializer_list<const char*> path,
                double fallback = 0.0) {
  const JsonValue* node = FindPath(root, path);
  return node != nullptr && node->is_number() ? node->double_value()
                                              : fallback;
}

uint64_t CounterAt(const JsonValue& root, const char* name) {
  const JsonValue* node = FindPath(root, {"counters", name});
  return node != nullptr && node->is_number()
             ? static_cast<uint64_t>(node->int_value())
             : 0;
}

std::string StringAt(const JsonValue& root, const char* key,
                     const std::string& fallback) {
  const JsonValue* node = root.Find(key);
  return node != nullptr && node->is_string() ? node->string_value()
                                              : fallback;
}

// One histogram-summary row: p50/p90/p99 from the doc's precomputed
// summaries, preferring the windowed section when it is valid.
struct LatencyRow {
  bool present = false;
  uint64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

LatencyRow RowFor(const JsonValue& stats, const char* name) {
  LatencyRow row;
  const JsonValue* summary =
      FindPath(stats, {"window", "histograms", name});
  if (summary == nullptr ||
      NumberAt(stats, {"window", "seconds"}, 0.0) <= 0.0) {
    summary = FindPath(stats, {"histograms", name});
  }
  if (summary == nullptr) return row;
  row.present = true;
  row.count = static_cast<uint64_t>(NumberAt(*summary, {"count"}));
  row.p50 = NumberAt(*summary, {"p50"});
  row.p90 = NumberAt(*summary, {"p90"});
  row.p99 = NumberAt(*summary, {"p99"});
  return row;
}

void PrintRow(const char* label, const LatencyRow& row) {
  if (!row.present) return;
  std::printf("  %-22s %10llu  %8.0f %8.0f %8.0f\n", label,
              static_cast<unsigned long long>(row.count), row.p50, row.p90,
              row.p99);
}

// Rates computed client-side from two successive polls, used when the
// server's own window section is not (yet) valid.
struct PollDelta {
  bool valid = false;
  double seconds = 0.0;
  uint64_t requests = 0;
  uint64_t records = 0;
};

void RenderScreen(const JsonValue& stats, const std::string& endpoint,
                  const PollDelta& delta) {
  // ANSI home + clear-to-end keeps the view flicker-free on a terminal
  // and degrades to plain text when piped.
  std::printf("\x1b[H\x1b[J");
  std::printf("mergepurge_top — %s   state: %s   up %.1fs\n",
              endpoint.c_str(), StringAt(stats, "state", "?").c_str(),
              NumberAt(stats, {"uptime_seconds"}));

  const double records = NumberAt(stats, {"records"});
  const double entities = NumberAt(stats, {"entities"});
  const double pairs = NumberAt(stats, {"pairs"});
  std::printf("resident: %.0f records | %.0f entities | %.0f pairs\n",
              records, entities, pairs);

  const double window_seconds = NumberAt(stats, {"window", "seconds"});
  if (window_seconds > 0.0) {
    std::printf("rates (%.1fs window): %.0f req/s | %.0f rec/s\n",
                window_seconds,
                NumberAt(stats, {"window", "requests_per_sec"}),
                NumberAt(stats, {"window", "records_per_sec"}));
  } else if (delta.valid && delta.seconds > 0.0) {
    std::printf("rates (%.1fs poll delta): %.0f req/s | %.0f rec/s\n",
                delta.seconds,
                static_cast<double>(delta.requests) / delta.seconds,
                static_cast<double>(delta.records) / delta.seconds);
  } else {
    std::printf("rates: warming up (need two polls)\n");
  }

  std::printf("totals: %llu requests | %llu upserts | %llu matches | "
              "%llu batches | %llu errors\n",
              static_cast<unsigned long long>(
                  CounterAt(stats, metric_names::kServiceRequests)),
              static_cast<unsigned long long>(
                  CounterAt(stats, metric_names::kServiceUpsertRequests)),
              static_cast<unsigned long long>(
                  CounterAt(stats, metric_names::kServiceMatchRequests)),
              static_cast<unsigned long long>(
                  CounterAt(stats, metric_names::kServiceBatches)),
              static_cast<unsigned long long>(
                  CounterAt(stats, metric_names::kServiceErrors)));

  std::printf("\n  %-22s %10s  %8s %8s %8s\n", "latency (us)", "count",
              "p50", "p90", "p99");
  PrintRow("request", RowFor(stats, metric_names::kServiceRequestUs));
  PrintRow("match", RowFor(stats, metric_names::kServiceMatchUs));
  PrintRow("upsert", RowFor(stats, metric_names::kServiceUpsertUs));

  std::printf("\n  %-22s %10s  %8s %8s %8s\n", "stage (us/batch)", "count",
              "p50", "p90", "p99");
  PrintRow("queue_wait",
           RowFor(stats, metric_names::kServiceStageQueueWaitUs));
  PrintRow("wal_append",
           RowFor(stats, metric_names::kServiceStageWalAppendUs));
  PrintRow("wal_fsync",
           RowFor(stats, metric_names::kServiceStageWalFsyncUs));
  PrintRow("apply", RowFor(stats, metric_names::kServiceStageApplyUs));
  PrintRow("label_rebuild",
           RowFor(stats, metric_names::kServiceStageLabelRebuildUs));
  PrintRow("ack", RowFor(stats, metric_names::kServiceStageAckUs));

  if (const JsonValue* durability = stats.Find("durability")) {
    std::printf("\nwal: seq %.0f | snapshot seq %.0f | open segment %.0fB "
                "| snapshot age %.0fms\n",
                NumberAt(*durability, {"wal_seq"}),
                NumberAt(*durability, {"snapshot_seq"}),
                NumberAt(stats, {"gauges",
                                 metric_names::kServiceWalOpenSegmentBytes}),
                NumberAt(stats,
                         {"gauges", metric_names::kServiceSnapshotAgeMs},
                         -1.0));
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.status().ok()) return UsageError(args.status().message());
  const std::string unknown = args.FirstUnknownFlag(kKnownFlags);
  if (!unknown.empty()) return UsageError("unknown flag --" + unknown);

  if (!args.Has("port")) return UsageError("--port is required");
  const int64_t port = args.GetInt("port", 0);
  if (port < 1 || port > 65535) {
    return UsageError("--port must be in [1, 65535] (got " +
                      args.GetString("port", "") + ")");
  }
  const std::string host = args.GetString("host", "127.0.0.1");
  const int64_t interval_ms = args.GetInt("interval-ms", 1000);
  if (interval_ms < 1) return UsageError("--interval-ms must be >= 1");
  const int64_t count = args.GetInt("count", 0);
  if (count < 0) return UsageError("--count must be >= 0");
  const bool json = args.GetBool("json", false);
  const std::string endpoint =
      host + ":" + std::to_string(static_cast<unsigned>(port));

  SignalDrain::Global().Install();
  SignalDrain::Global().set_exit_after_callbacks(false);

  ServiceClient client;
  Status connected = client.Connect(host, static_cast<uint16_t>(port));
  if (!connected.ok()) {
    std::fprintf(stderr, "mergepurge_top: %s\n",
                 connected.ToString().c_str());
    return kExitRuntime;
  }

  Timer wall;
  double last_poll_seconds = 0.0;
  uint64_t last_requests = 0;
  uint64_t last_records = 0;
  bool have_last = false;
  for (int64_t polls = 0; count == 0 || polls < count; ++polls) {
    if (SignalDrain::Global().triggered()) break;
    if (polls > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      if (SignalDrain::Global().triggered()) break;
    }
    Result<JsonValue> response = client.Call("{\"op\":\"stats\"}\n");
    if (!response.ok()) {
      std::fprintf(stderr, "mergepurge_top: %s\n",
                   response.status().ToString().c_str());
      return kExitRuntime;
    }
    const JsonValue* ok = response->Find("ok");
    if (ok == nullptr || !ok->bool_value()) {
      std::fprintf(stderr, "mergepurge_top: server error: %s\n",
                   response->Dump(0).c_str());
      return kExitRuntime;
    }

    if (json) {
      // One compact document per poll; downstream tooling parses each
      // line independently (the CI round-trip validates the first).
      std::printf("%s\n", response->Dump(0).c_str());
      std::fflush(stdout);
      continue;
    }

    const double now = wall.ElapsedSeconds();
    const uint64_t requests =
        CounterAt(*response, metric_names::kServiceRequests);
    const uint64_t records =
        CounterAt(*response, metric_names::kServiceUpsertRecords);
    PollDelta delta;
    if (have_last) {
      delta.valid = true;
      delta.seconds = now - last_poll_seconds;
      delta.requests = requests > last_requests ? requests - last_requests
                                                : 0;
      delta.records =
          records > last_records ? records - last_records : 0;
    }
    last_poll_seconds = now;
    last_requests = requests;
    last_records = records;
    have_last = true;

    RenderScreen(*response, endpoint, delta);
  }
  return 0;
}
