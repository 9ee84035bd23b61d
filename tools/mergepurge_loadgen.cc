// mergepurge_loadgen — closed-loop load generator for mergepurge_serve.
//
// Spawns N client threads, each with its own connection, driving an
// interleaved mix of upsert batches and match probes against a running
// server. Records per-request latency and writes a RunReport
// (BENCH_service.json) with throughput and exact p50/p90/p99 latency
// alongside the service.client.* histograms.
//
//   mergepurge_loadgen --port=N [--host=127.0.0.1] [--threads=4]
//                      [--records=10000]    (total records to upsert)
//                      [--match-frac=0.5]   (fraction of requests that
//                                            are match probes)
//                      [--upsert-batch=8]   (records per upsert request)
//                      [--seed=42]
//                      [--progress-interval-ms=0]  (periodic progress
//                                            line on stderr; 0 = off)
//                      [--out=BENCH_service.json]
//
// Every response is validated (ok:true, upsert entity count == batch
// size); any failure makes the run exit 1. Exit 2 on usage errors.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "eval/experiment.h"
#include "gen/generator.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/window.h"
#include "service/client.h"
#include "service/protocol.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace mergepurge;

namespace {

constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

constexpr const char* kUsage =
    "usage: mergepurge_loadgen --port=N [--host=ADDR] [--threads=N] "
    "[--records=N] [--match-frac=F] [--upsert-batch=N] [--seed=N] "
    "[--progress-interval-ms=N] [--out=FILE.json]";

constexpr const char* kKnownFlags[] = {
    "port", "host", "threads", "records", "match-frac", "upsert-batch",
    "seed", "progress-interval-ms", "out",
};

int UsageError(const std::string& message) {
  std::fprintf(stderr, "mergepurge_loadgen: %s\n%s\n", message.c_str(),
               kUsage);
  return kExitUsage;
}

struct WorkerResult {
  std::vector<double> request_us;  // Every request.
  std::vector<double> match_us;
  std::vector<double> upsert_us;
  uint64_t records_sent = 0;
  uint64_t retries = 0;  // Reconnect-and-resend attempts that were needed.
  uint64_t failures = 0;
  std::string first_error;

  void Fail(const std::string& message) {
    ++failures;
    if (first_error.empty()) first_error = message;
  }
};

// The reconnect-with-backoff loop itself lives in service/client.h
// (CallWithRetry — shared with the shard coordinator's connection
// pool); this wrapper only adds the per-worker retry accounting.
Result<JsonValue> WorkerCall(ServiceClient* client, const std::string& host,
                             uint16_t port, std::string_view request_line,
                             Rng* rng, WorkerResult* result) {
  return CallWithRetry(client, host, port, request_line, rng,
                       RetryOptions{}, [result] { ++result->retries; });
}

// The per-thread closed loop: upserts its slice of the dataset in batches,
// interleaving match probes against records it has already admitted.
void RunWorker(const std::string& host, uint16_t port, const Schema& schema,
               const Dataset& dataset, size_t begin, size_t end,
               double match_frac, size_t upsert_batch, Rng rng,
               WorkerResult* result) {
  // Client-side histograms are fed live (not merged at the end) so the
  // --progress-interval-ms reporter can rate over registry snapshots.
  static LatencyHistogram* const client_request_us =
      MetricsRegistry::Global().GetHistogram(
          metric_names::kServiceClientRequestUs);
  static LatencyHistogram* const client_match_us =
      MetricsRegistry::Global().GetHistogram(
          metric_names::kServiceClientMatchUs);
  static LatencyHistogram* const client_upsert_us =
      MetricsRegistry::Global().GetHistogram(
          metric_names::kServiceClientUpsertUs);

  // The first CallWithRetry connects lazily (and reconnects after any
  // transport error), so a server that is still starting up — or
  // restarting after a crash — costs retries, not failures.
  ServiceClient client;
  size_t next = begin;
  size_t sent_end = begin;  // Records in [begin, sent_end) were admitted.
  while (next < end) {
    const bool probe =
        sent_end > begin && rng.NextBernoulli(match_frac);
    std::string request_line;
    bool is_match = false;
    size_t batch_records = 0;
    if (probe) {
      is_match = true;
      const size_t pick =
          begin + static_cast<size_t>(rng.NextBounded(sent_end - begin));
      JsonValue doc = JsonValue::Object();
      doc.Set("op", JsonValue("match"));
      doc.Set("record", RecordToJson(schema, dataset.record(static_cast<TupleId>(pick))));
      request_line = doc.Dump(0) + "\n";
    } else {
      batch_records = std::min(upsert_batch, end - next);
      JsonValue records = JsonValue::Array();
      for (size_t i = next; i < next + batch_records; ++i) {
        records.Append(RecordToJson(schema, dataset.record(static_cast<TupleId>(i))));
      }
      JsonValue doc = JsonValue::Object();
      doc.Set("op", JsonValue("upsert"));
      doc.Set("records", std::move(records));
      request_line = doc.Dump(0) + "\n";
    }

    Timer timer;
    Result<JsonValue> response =
        WorkerCall(&client, host, port, request_line, &rng, result);
    const double micros = static_cast<double>(timer.ElapsedMicros());
    if (!response.ok()) {
      result->Fail(response.status().ToString());
      return;  // Retries exhausted; the server is genuinely gone.
    }
    const JsonValue* ok = response->Find("ok");
    if (ok == nullptr || !ok->bool_value()) {
      const JsonValue* error = response->Find("error");
      result->Fail("server error: " +
                   (error != nullptr ? error->Dump(0) : response->Dump(0)));
      continue;
    }
    result->request_us.push_back(micros);
    client_request_us->Record(micros);
    if (is_match) {
      result->match_us.push_back(micros);
      client_match_us->Record(micros);
    } else {
      const JsonValue* entities = response->Find("entities");
      if (entities == nullptr ||
          entities->elements().size() != batch_records) {
        result->Fail(StringPrintf(
            "upsert returned %zu entity ids for %zu records",
            entities == nullptr ? size_t{0} : entities->elements().size(),
            batch_records));
      }
      result->upsert_us.push_back(micros);
      client_upsert_us->Record(micros);
      result->records_sent += batch_records;
      next += batch_records;
      sent_end = next;
    }
  }
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      std::min<double>(static_cast<double>(sorted.size()) - 1.0,
                       p * static_cast<double>(sorted.size())));
  return sorted[index];
}

JsonValue LatencySummary(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) sum += v;
  JsonValue out = JsonValue::Object();
  out.Set("count", JsonValue(static_cast<uint64_t>(samples.size())));
  out.Set("p50_us", JsonValue(Percentile(samples, 0.50)));
  out.Set("p90_us", JsonValue(Percentile(samples, 0.90)));
  out.Set("p99_us", JsonValue(Percentile(samples, 0.99)));
  out.Set("max_us",
          JsonValue(samples.empty() ? 0.0 : samples.back()));
  out.Set("mean_us",
          JsonValue(samples.empty()
                        ? 0.0
                        : sum / static_cast<double>(samples.size())));
  return out;
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
  const int64_t threads = args.GetInt("threads", 4);
  if (threads < 1) return UsageError("--threads must be >= 1");
  const int64_t records = args.GetInt("records", 10000);
  if (records < 1) return UsageError("--records must be >= 1");
  const double match_frac = args.GetDouble("match-frac", 0.5);
  if (match_frac < 0.0 || match_frac >= 1.0) {
    return UsageError("--match-frac must be in [0, 1)");
  }
  const int64_t upsert_batch = args.GetInt("upsert-batch", 8);
  if (upsert_batch < 1) return UsageError("--upsert-batch must be >= 1");
  const uint64_t seed =
      static_cast<uint64_t>(args.GetInt("seed", 42));
  const int64_t progress_interval_ms =
      args.GetInt("progress-interval-ms", 0);
  if (progress_interval_ms < 0) {
    return UsageError("--progress-interval-ms must be >= 0");
  }
  const std::string out_path = args.GetString("out", "BENCH_service.json");

  // Generate the workload: originals + duplicates gives the match probes
  // realistic hit rates. The generator emits more than num_records total
  // (duplicates ride along), so truncate to exactly --records.
  GeneratorConfig gen_config;
  gen_config.num_records = static_cast<size_t>(records);
  gen_config.seed = seed;
  Result<GeneratedDatabase> generated =
      DatabaseGenerator(gen_config).Generate();
  if (!generated.ok()) {
    std::fprintf(stderr, "mergepurge_loadgen: generator: %s\n",
                 generated.status().ToString().c_str());
    return kExitRuntime;
  }
  const Dataset& dataset = generated->dataset;
  const size_t total_records =
      std::min(dataset.size(), static_cast<size_t>(records));
  const Schema schema = employee::MakeSchema();

  const size_t num_threads =
      std::min(static_cast<size_t>(threads), total_records);
  std::vector<WorkerResult> results(num_threads);
  std::vector<std::thread> workers;
  workers.reserve(num_threads);
  Rng root_rng(seed ^ 0x10adULL);

  std::fprintf(stderr,
               "mergepurge_loadgen: %zu records, %zu threads, "
               "match-frac %.2f, upsert-batch %lld -> %s:%lld\n",
               total_records, num_threads, match_frac,
               static_cast<long long>(upsert_batch), host.c_str(),
               static_cast<long long>(port));

  Timer wall;
  for (size_t i = 0; i < num_threads; ++i) {
    const size_t begin = total_records * i / num_threads;
    const size_t end = total_records * (i + 1) / num_threads;
    workers.emplace_back(RunWorker, host, static_cast<uint16_t>(port),
                         std::cref(schema), std::cref(dataset), begin, end,
                         match_frac, static_cast<size_t>(upsert_batch),
                         root_rng.Fork(), &results[i]);
  }

  // Periodic progress line: snapshot the registry each tick, rate the
  // client-side histogram deltas over the window (obs/window.h).
  std::atomic<bool> workers_done{false};
  std::thread progress;
  if (progress_interval_ms > 0) {
    progress = std::thread([&workers_done, &wall, progress_interval_ms] {
      const double interval_seconds =
          static_cast<double>(progress_interval_ms) / 1000.0;
      SnapshotRing ring;
      ring.Push(wall.ElapsedSeconds(), MetricsRegistry::Global().Snapshot());
      while (!workers_done.load(std::memory_order_acquire)) {
        // Sleep in small slices so the reporter exits promptly when the
        // workers finish early.
        const auto tick_deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(progress_interval_ms);
        while (!workers_done.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < tick_deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        if (workers_done.load(std::memory_order_acquire)) break;
        const double now = wall.ElapsedSeconds();
        ring.Push(now, MetricsRegistry::Global().Snapshot());
        const SnapshotWindow window = ring.Over(interval_seconds * 1.5);
        if (!window.valid) continue;
        const auto it = window.delta.histograms.find(
            metric_names::kServiceClientRequestUs);
        if (it == window.delta.histograms.end()) continue;
        const HistogramSnapshot& requests = it->second;
        std::fprintf(
            stderr,
            "mergepurge_loadgen: t=%.1fs %.0f req/s, window p50 %.0fus "
            "p99 %.0fus, %llu retries\n",
            now,
            static_cast<double>(requests.count) / window.seconds,
            HistogramQuantile(requests, 0.50),
            HistogramQuantile(requests, 0.99),
            static_cast<unsigned long long>(window.delta.counter(
                metric_names::kServiceClientRetries)));
      }
    });
  }

  for (std::thread& t : workers) t.join();
  workers_done.store(true, std::memory_order_release);
  if (progress.joinable()) progress.join();
  const double wall_seconds =
      static_cast<double>(wall.ElapsedMicros()) / 1e6;

  // Merge per-thread samples and feed the client-side histograms so the
  // run report carries full distributions, not just the percentiles.
  std::vector<double> request_us;
  std::vector<double> match_us;
  std::vector<double> upsert_us;
  uint64_t records_sent = 0;
  uint64_t retries = 0;
  uint64_t failures = 0;
  std::string first_error;
  for (WorkerResult& r : results) {
    request_us.insert(request_us.end(), r.request_us.begin(),
                      r.request_us.end());
    match_us.insert(match_us.end(), r.match_us.begin(), r.match_us.end());
    upsert_us.insert(upsert_us.end(), r.upsert_us.begin(),
                     r.upsert_us.end());
    records_sent += r.records_sent;
    retries += r.retries;
    failures += r.failures;
    if (first_error.empty()) first_error = r.first_error;
  }
  // Retries and the client-side histograms were fed live by the workers
  // (CallWithRetry / RunWorker), so the registry already carries them.

  // A final stats round-trip: the server's view of what we admitted.
  JsonValue server_stats = JsonValue::Object();
  {
    ServiceClient client;
    if (client.Connect(host, static_cast<uint16_t>(port)).ok()) {
      Result<JsonValue> response =
          client.Call("{\"op\":\"stats\"}\n");
      if (response.ok() && response->Find("ok") != nullptr &&
          response->Find("ok")->bool_value()) {
        for (const char* key : {"records", "entities", "pairs"}) {
          if (const JsonValue* v = response->Find(key)) {
            server_stats.Set(key, *v);
          }
        }
        // When the server runs durably it reports wal/snapshot sequences
        // and its startup recovery time; carry them into the benchmark
        // report so BENCH_service.json records recovery cost.
        if (const JsonValue* durability = response->Find("durability")) {
          server_stats.Set("durability", *durability);
        }
      }
    }
  }

  const uint64_t total_requests =
      static_cast<uint64_t>(request_us.size());
  const double requests_per_second =
      wall_seconds > 0.0
          ? static_cast<double>(total_requests) / wall_seconds
          : 0.0;
  const double records_per_second =
      wall_seconds > 0.0
          ? static_cast<double>(records_sent) / wall_seconds
          : 0.0;

  RunReport report("mergepurge_loadgen");
  report.SetConfig("host", JsonValue(host));
  report.SetConfig("port", JsonValue(static_cast<uint64_t>(port)));
  report.SetConfig("threads",
                   JsonValue(static_cast<uint64_t>(num_threads)));
  report.SetConfig("records",
                   JsonValue(static_cast<uint64_t>(total_records)));
  report.SetConfig("match_frac", JsonValue(match_frac));
  report.SetConfig("upsert_batch",
                   JsonValue(static_cast<uint64_t>(upsert_batch)));
  report.SetConfig("seed", JsonValue(seed));
  report.SetDataset(total_records, employee::kNumFields);

  JsonValue summary = JsonValue::Object();
  summary.Set("requests", JsonValue(total_requests));
  summary.Set("match_requests",
              JsonValue(static_cast<uint64_t>(match_us.size())));
  summary.Set("upsert_requests",
              JsonValue(static_cast<uint64_t>(upsert_us.size())));
  summary.Set("records_sent", JsonValue(records_sent));
  summary.Set("retries", JsonValue(retries));
  summary.Set("failures", JsonValue(failures));
  summary.Set("wall_seconds", JsonValue(wall_seconds));
  summary.Set("requests_per_second", JsonValue(requests_per_second));
  summary.Set("records_per_second", JsonValue(records_per_second));
  summary.Set("latency_request", LatencySummary(request_us));
  summary.Set("latency_match", LatencySummary(match_us));
  summary.Set("latency_upsert", LatencySummary(upsert_us));
  summary.Set("server", std::move(server_stats));
  report.SetConfig("summary", std::move(summary));

  const bool ok = failures == 0 && records_sent == total_records;
  report.SetOutcome(ok, ok ? "" : first_error);
  report.CaptureMetrics();
  Status write = report.WriteToFile(out_path);
  if (!write.ok()) {
    std::fprintf(stderr, "mergepurge_loadgen: %s\n",
                 write.ToString().c_str());
    return kExitRuntime;
  }

  std::fprintf(stderr,
               "mergepurge_loadgen: %llu requests in %.2fs "
               "(%.0f req/s, %.0f rec/s), p50 %.0fus p99 %.0fus, "
               "%llu retries, %llu failures -> %s\n",
               static_cast<unsigned long long>(total_requests),
               wall_seconds, requests_per_second, records_per_second,
               Percentile(request_us, 0.50), Percentile(request_us, 0.99),
               static_cast<unsigned long long>(retries),
               static_cast<unsigned long long>(failures), out_path.c_str());
  if (!ok && !first_error.empty()) {
    std::fprintf(stderr, "mergepurge_loadgen: first error: %s\n",
                 first_error.c_str());
  }
  return ok ? 0 : kExitRuntime;
}
