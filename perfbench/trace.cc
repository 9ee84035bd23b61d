// perfbench_trace — the traced half of the repository benchmark
// (README.md). It runs a workload in one process, calling each layer's
// public functions from here and recording a span around every call, so
// the per-layer numbers add up to the whole. Spans stay in memory with
// parent links and are written once, at exit.
//
//   perfbench_trace --workload=NAME --seed=N --work-dir=DIR --pinned=FILE
//                   --spans-out=FILE
//
// Each workload runs twice: untraced, then traced; the difference is the
// tracing overhead. The last stdout line is one JSON object: correct,
// attempted, failed and layers (per-layer metric name -> value).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "core/incremental.h"
#include "core/merge_purge.h"
#include "core/multipass.h"
#include "core/sorted_neighborhood.h"
#include "core/window_scanner.h"
#include "eval/experiment.h"
#include "gen/generator.h"
#include "io/csv.h"
#include "io/pairs_io.h"
#include "keys/standard_keys.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "rules/employee_theory.h"
#include "service/protocol.h"
#include "service/snapshot.h"
#include "service/wal.h"
#include "text/normalize.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using namespace mergepurge;
using Clock = std::chrono::steady_clock;

constexpr int kExitFailed = 1;
constexpr int kExitUsage = 2;
// Requests per service replay (each of the two replays).
constexpr size_t kUpsertReplayRequests = 400;
constexpr size_t kMatchReplayPasses = 2;  // Over the whole probe pool.

// ----------------------------------------------------------------- spans

struct SpanRecord {
  std::string name;
  int parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

// Single-threaded span store: the replays below run on one thread.
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int Begin(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name),
                      stack_.empty() ? -1 : stack_.back(), Clock::now(), {}});
    stack_.push_back(id);
    return id;
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end = Clock::now();
    stack_.pop_back();
  }

  static double Seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

  // Per span: its duration minus the part its children cover.
  std::vector<double> SelfSeconds() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = Seconds(spans_[i].end - spans_[i].start);
    }
    for (const SpanRecord& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<size_t>(span.parent)] -=
            Seconds(span.end - span.start);
      }
    }
    return self;
  }

  struct Layer {
    double self_seconds = 0.0;
    uint64_t calls = 0;
  };
  // Self time and call count per span name, excluding the grouping
  // spans (`groups`), whose self time is the untraced remainder.
  std::map<std::string, Layer> Layers(const std::set<std::string>& groups,
                                      double* covered_seconds) const {
    std::map<std::string, Layer> layers;
    const std::vector<double> self = SelfSeconds();
    *covered_seconds = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (groups.contains(spans_[i].name)) continue;
      Layer& layer = layers[spans_[i].name];
      layer.self_seconds += self[i];
      ++layer.calls;
      *covered_seconds += self[i];
    }
    return layers;
  }

  double RootSeconds(const std::string& name) const {
    double total = 0.0;
    for (const SpanRecord& span : spans_) {
      if (span.parent < 0 && span.name == name) {
        total += Seconds(span.end - span.start);
      }
    }
    return total;
  }

  Status WriteJson(const std::string& path) const {
    if (spans_.empty()) return Status::OK();
    const Clock::time_point origin = spans_.front().start;
    std::ofstream out(path, std::ios::trunc);
    out << "{\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& span = spans_[i];
      out << (i == 0 ? "" : ",") << "\n{\"id\":" << i
          << ",\"parent\":" << span.parent << ",\"name\":\"" << span.name
          << "\",\"start_us\":"
          << std::chrono::duration_cast<std::chrono::microseconds>(
                 span.start - origin)
                 .count()
          << ",\"dur_us\":"
          << std::chrono::duration_cast<std::chrono::microseconds>(
                 span.end - span.start)
                 .count()
          << "}";
    }
    out << "\n]}\n";
    return out.good() ? Status::OK()
                      : Status::IoError("cannot write spans to " + path);
  }

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

// Records one span while the tracer is enabled; free otherwise.
class Span {
 public:
  explicit Span(const char* name) {
    if (GlobalTracer().enabled()) id_ = GlobalTracer().Begin(name);
  }
  ~Span() {
    if (id_ >= 0) GlobalTracer().End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_ = -1;
};

// ------------------------------------------------------------- reporting

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  JsonValue layers = JsonValue::Object();

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench_trace: check failed: %s\n",
                   what.c_str());
    }
  }
  void Set(const std::string& name, double value) {
    layers.Set(name, JsonValue(value));
  }
};

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->Value();
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// Rule-layer counters, read as deltas around a replay.
struct RuleCounters {
  uint64_t distance_calls = CounterValue(metric_names::kRulesDistanceCalls);
  uint64_t early_exits = CounterValue(metric_names::kRulesEarlyExits);

  void ReportSince(double comparisons, Report* report) const {
    const RuleCounters now;
    report->Set("rules.distance_calls_per_comparison",
                Ratio(static_cast<double>(now.distance_calls - distance_calls),
                      comparisons));
    report->Set("rules.early_exit_ratio",
                Ratio(static_cast<double>(now.early_exits - early_exits),
                      comparisons));
  }
};

// ----------------------------------------------------------------- batch

struct BatchOutcome {
  uint64_t comparisons = 0;
  uint64_t matches = 0;
  std::map<std::string, std::string> digests;  // Output name -> digest.
};

// The CLI's pipeline (tools/mergepurge_cli.cc with --pairs-out and
// --entities), layer by layer.
Result<BatchOutcome> RunBatchPipeline(const std::string& csv,
                                      const std::string& out_dir) {
  Span root("batch");
  const Schema schema = employee::MakeSchema();
  Result<Dataset> input = Status::Internal("not run");
  {
    Span span("io.csv_read");
    input = ReadCsvFile(schema, csv);
  }
  if (!input.ok()) return input.status();
  Dataset conditioned;
  {
    Span span("text.condition");
    conditioned = *input;
    ConditionEmployeeDataset(&conditioned);
  }

  EmployeeTheory theory;
  const std::vector<KeySpec> keys = StandardThreeKeys();
  std::vector<PairSet> pairs(keys.size());
  BatchOutcome outcome;
  for (size_t k = 0; k < keys.size(); ++k) {
    std::vector<TupleId> order;
    {
      Span span("sort.keys_and_sort");
      order = SortedNeighborhood::SortByKey(conditioned, keys[k]);
    }
    Span span("core.scan");
    const ScanStats stats =
        WindowScanner(kBatchWindow).Scan(conditioned, order, theory, &pairs[k]);
    FlushScanStats(stats);
    theory.FlushMetrics();
    outcome.comparisons += stats.comparisons;
    outcome.matches += stats.matches;
  }

  MergePurgeResult result;
  {
    Span span("core.closure");
    PairSet all_pairs;
    std::vector<const PairSet*> pair_sets;
    for (const PairSet& pass : pairs) {
      all_pairs.Merge(pass);
      pair_sets.push_back(&pass);
    }
    result.component_of = TransitiveClosure(pair_sets, conditioned.size());
  }
  Dataset purged;
  {
    Span span("core.purge");
    purged = result.Purge(*input);
  }
  const std::string entities_path = out_dir + "/entities.csv";
  {
    Span span("io.csv_write");
    MERGEPURGE_RETURN_NOT_OK(WriteCsvFile(purged, out_dir + "/output.csv"));
    Dataset mapping(Schema({"tuple_id", "entity_id"}));
    for (size_t t = 0; t < result.component_of.size(); ++t) {
      mapping.Append(Record({std::to_string(t),
                             std::to_string(result.component_of[t])}));
    }
    MERGEPURGE_RETURN_NOT_OK(WriteCsvFile(mapping, entities_path));
  }
  {
    Span span("io.pairs_write");
    for (size_t k = 0; k < keys.size(); ++k) {
      MERGEPURGE_RETURN_NOT_OK(WritePairSetFile(
          pairs[k], out_dir + "/pairs." + keys[k].name + ".mpp"));
    }
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    Result<uint64_t> digest =
        FileDigest(out_dir + "/pairs." + keys[k].name + ".mpp");
    if (!digest.ok()) return digest.status();
    outcome.digests["pairs." + keys[k].name] = Hex(*digest);
  }
  Result<uint64_t> entities = FileDigest(entities_path);
  if (!entities.ok()) return entities.status();
  outcome.digests["entities"] = Hex(*entities);
  return outcome;
}

int TraceBatch(uint64_t seed, const std::string& work_dir,
               const JsonValue& pinned, Report* report) {
  Result<Dataset> dataset = GenerateDatabase(kBatchOriginals, seed);
  if (!dataset.ok()) return kExitFailed;
  const std::string csv = work_dir + "/input.csv";
  if (!WriteCsvFile(*dataset, csv).ok()) return kExitFailed;
  const uint64_t gen_seed = GeneratorSeed(seed);

  double walls[2] = {0.0, 0.0};
  uint64_t comparisons = 0;
  uint64_t matches = 0;
  RuleCounters rules_before;
  for (int traced = 0; traced < 2; ++traced) {
    if (traced == 1) rules_before = RuleCounters();
    GlobalTracer().set_enabled(traced == 1);
    Timer wall;
    Result<BatchOutcome> outcome = RunBatchPipeline(csv, work_dir);
    walls[traced] = wall.ElapsedSeconds();
    if (!outcome.ok()) {
      report->Check(false, outcome.status().ToString());
      return 0;
    }
    for (const auto& [name, digest] : outcome->digests) {
      const std::string expected =
          PinnedValue(pinned, kBatchWorkload, gen_seed, name);
      report->Check(digest == expected,
                    name + " digest " + digest + ", pinned " + expected);
    }
    comparisons = outcome->comparisons;
    matches = outcome->matches;
  }
  GlobalTracer().set_enabled(false);

  double covered = 0.0;
  const auto layers =
      GlobalTracer().Layers({"batch"}, &covered);
  auto self = [&layers](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_seconds;
  };
  const double traced_wall = GlobalTracer().RootSeconds("batch");
  for (const char* name :
       {"io.csv_read", "io.csv_write", "io.pairs_write", "text.condition",
        "sort.keys_and_sort", "core.scan", "core.closure", "core.purge"}) {
    report->Set(std::string(name) + "_s", self(name));
  }
  const double n = static_cast<double>(comparisons);
  report->Set("core.scan.comparisons", n);
  report->Set("core.scan.ns_per_comparison", Ratio(self("core.scan") * 1e9, n));
  report->Set("core.scan.match_ratio", Ratio(static_cast<double>(matches), n));
  rules_before.ReportSince(n, report);
  report->Set("trace.coverage", Ratio(covered, traced_wall));
  report->Set("trace.overhead_pct",
              Ratio(walls[1] - walls[0], walls[0]) * 100.0);
  return 0;
}

// --------------------------------------------------------------- service

Dataset BatchOf(const Dataset& source, size_t begin, size_t end) {
  Dataset batch(source.schema());
  for (size_t t = begin; t < end; ++t) {
    batch.Append(source.record(static_cast<TupleId>(t)));
  }
  return batch;
}

// One match probe answered the way MatchService::Match answers it.
struct MatchAnswer {
  std::optional<uint32_t> entity;
  std::vector<TupleId> matches;
  std::vector<uint32_t> entities;
};

MatchAnswer Answer(const IncrementalMergePurge& engine, ProbeResult probe) {
  MatchAnswer answer;
  answer.matches = std::move(probe.matches);
  if (!answer.matches.empty()) {
    const std::vector<uint32_t>& labels = engine.CachedComponentLabels();
    for (TupleId t : answer.matches) answer.entities.push_back(labels[t]);
    std::sort(answer.entities.begin(), answer.entities.end());
    answer.entities.erase(
        std::unique(answer.entities.begin(), answer.entities.end()),
        answer.entities.end());
    answer.entity = answer.entities.front();
  }
  return answer;
}

// Replays one request stream against the engine, the WAL and the
// snapshot writer, as the server's request path and commit path do.
struct Replay {
  const ServiceWorkload& workload;
  const ServiceInputs& inputs;
  IncrementalMergePurge& engine;
  EmployeeTheory& theory;
  WalWriter* wal;  // Null when the workload runs without --data-dir.
  std::string snapshot_dir;
  size_t next_upsert = 0;
  uint64_t probe_comparisons = 0;
  uint64_t batch_comparisons = 0;
  uint64_t found = 0;  // Probe matches plus new pairs.
  uint64_t probes = 0;
  uint64_t upserted = 0;
  uint64_t seq = 0;

  // Runs `requests` requests chosen as the closed loop chooses them.
  Status Run(size_t requests, Rng* rng, Report* report) {
    Span root("replay");
    const Schema schema = employee::MakeSchema();
    for (size_t r = 0; r < requests; ++r) {
      const bool is_match = workload.match_frac >= 1.0 ||
                            rng->NextBernoulli(workload.match_frac);
      std::string line;
      if (is_match) {
        const size_t probe = workload.match_frac >= 1.0
                                 ? r % inputs.probes.size()
                                 : rng->NextBounded(inputs.probes.size());
        line = MatchLine(inputs.probes, probe);
      } else {
        const size_t begin = next_upsert;
        next_upsert += workload.upsert_batch;
        if (next_upsert > inputs.stream.size()) {
          return Status::OutOfRange("replay ran out of upsert records");
        }
        line = UpsertLine(inputs.stream, begin, next_upsert);
      }
      MERGEPURGE_RETURN_NOT_OK(Request(line, schema, report));
    }
    if (wal != nullptr) {
      Span span("service.snapshot.save");
      SnapshotState state;
      state.seq = seq;
      state.records = engine.records();
      state.pairs = engine.pairs();
      MERGEPURGE_RETURN_NOT_OK(SaveSnapshot(
          snapshot_dir, EngineConfigDigest(EngineOptions()), state));
    }
    return Status::OK();
  }

  static MergePurgeOptions EngineOptions() {
    MergePurgeOptions options;
    options.keys = StandardThreeKeys();
    options.window = kBatchWindow;
    return options;
  }

  Status Request(const std::string& line, const Schema& schema,
                 Report* report) {
    Span request_span("request");
    ServiceRequest request;
    ServiceError error;
    bool parsed = false;
    {
      Span span("service.protocol.parse");
      parsed = ParseRequest(line.substr(0, line.size() - 1), schema, &request,
                            &error);
    }
    if (!parsed) return Status::ParseError(error.message);
    std::string response;
    if (request.op == ServiceRequest::Op::kMatch) {
      Result<ProbeResult> probe = Status::Internal("not run");
      const uint64_t before = theory.comparison_count();
      {
        Span span("core.incremental.match_only");
        probe = engine.MatchOnly(request.records[0], theory);
      }
      probe_comparisons += theory.comparison_count() - before;
      if (!probe.ok()) return probe.status();
      MatchAnswer answer;
      {
        Span span("service.match.labels");
        answer = Answer(engine, std::move(*probe));
      }
      found += answer.matches.size();
      ++probes;
      Span span("service.protocol.encode");
      response = MatchResponseLine(nullptr, answer.entity, answer.matches,
                                   answer.entities);
    } else {
      if (wal != nullptr) {
        Span span("service.wal.commit");
        Result<uint64_t> logged = wal->Commit(request.records);
        if (!logged.ok()) return logged.status();
        seq = *logged;
      }
      Dataset batch(schema);
      for (Record& record : request.records) batch.Append(std::move(record));
      const size_t base = engine.size();
      Result<uint64_t> new_pairs = Status::Internal("not run");
      const uint64_t before = theory.comparison_count();
      {
        Span span("core.incremental.add_batch");
        new_pairs = engine.AddBatch(batch, theory);
      }
      batch_comparisons += theory.comparison_count() - before;
      if (!new_pairs.ok()) return new_pairs.status();
      std::vector<uint32_t> entities;
      {
        Span span("core.incremental.labels");
        const std::vector<uint32_t>& labels = engine.CachedComponentLabels();
        for (size_t t = base; t < engine.size(); ++t) {
          entities.push_back(labels[t]);
        }
      }
      report->Check(entities.size() == batch.size(),
                    "upsert labelled every record");
      found += *new_pairs;
      upserted += batch.size();
      Span span("service.protocol.encode");
      response = UpsertResponseLine(nullptr, entities, *new_pairs);
    }
    theory.FlushMetrics();
    return response.empty() ? Status::Internal("empty response")
                            : Status::OK();
  }
};

int TraceService(const ServiceWorkload& workload, uint64_t seed,
                 const std::string& work_dir, const JsonValue& pinned,
                 Report* report) {
  Result<ServiceInputs> inputs = MakeServiceInputs(workload, seed);
  if (!inputs.ok()) return kExitFailed;

  // Set-up, untraced: the preload batches the server commits.
  IncrementalMergePurge engine(Replay::EngineOptions());
  EmployeeTheory theory;
  for (size_t begin = 0; begin < inputs->resident.size();
       begin += workload.preload_batch) {
    const size_t end =
        std::min(inputs->resident.size(), begin + workload.preload_batch);
    Result<uint64_t> added =
        engine.AddBatch(BatchOf(inputs->resident, begin, end), theory);
    report->Check(added.ok(), "preload batch committed");
  }
  theory.FlushMetrics();

  // The probe pool answered in process must match the pinned digest
  // the server's pool pass produced.
  if (workload.match_frac >= 1.0) {
    std::vector<uint64_t> digests;
    for (size_t i = 0; i < inputs->probes.size(); ++i) {
      Result<ProbeResult> probe =
          engine.MatchOnly(inputs->probes.record(static_cast<TupleId>(i)),
                           theory);
      if (!probe.ok()) return kExitFailed;
      const MatchAnswer answer = Answer(engine, std::move(*probe));
      digests.push_back(MatchDigest(answer.entity, answer.matches));
    }
    theory.FlushMetrics();
    const std::string pool = Hex(ChainDigest(digests));
    const std::string expected =
        PinnedValue(pinned, workload.name, GeneratorSeed(seed), "pool");
    report->Check(pool == expected,
                  "probe pool digest " + pool + ", pinned " + expected);
  }

  std::unique_ptr<WalWriter> wal;
  const std::string data_dir = work_dir + "/replay-data";
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);
  if (workload.durable) {
    wal = std::make_unique<WalWriter>(FsyncPolicy::kNone);
    if (!wal->Open(data_dir, 1).ok()) return kExitFailed;
  }
  Replay replay{workload, *inputs, engine, theory, wal.get(), data_dir};
  const size_t requests = workload.match_frac >= 1.0
                              ? kMatchReplayPasses * inputs->probes.size()
                              : kUpsertReplayRequests;
  Rng rng(seed);
  double walls[2] = {0.0, 0.0};
  RuleCounters rules_before;
  for (int traced = 0; traced < 2; ++traced) {
    if (traced == 1) {
      // Count only the traced replay.
      rules_before = RuleCounters();
      replay.probe_comparisons = replay.batch_comparisons = 0;
      replay.found = replay.probes = replay.upserted = 0;
    }
    GlobalTracer().set_enabled(traced == 1);
    Timer wall;
    Status ran = replay.Run(requests, &rng, report);
    walls[traced] = wall.ElapsedSeconds();
    report->Check(ran.ok(), "replay: " + ran.ToString());
  }
  GlobalTracer().set_enabled(false);
  if (wal != nullptr) wal->Close();
  report->Check(engine.size() == inputs->resident.size() +
                                     replay.next_upsert,
                "engine holds every admitted record");

  double covered = 0.0;
  const auto layers = GlobalTracer().Layers({"replay", "request"}, &covered);
  auto mean = [&layers](const char* name, double scale) {
    auto it = layers.find(name);
    return it == layers.end() || it->second.calls == 0
               ? 0.0
               : it->second.self_seconds * scale /
                     static_cast<double>(it->second.calls);
  };
  auto self = [&layers](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_seconds;
  };
  const double traced_wall = GlobalTracer().RootSeconds("replay");
  const double comparisons =
      static_cast<double>(replay.probe_comparisons + replay.batch_comparisons);
  report->Set("core.incremental.add_batch_ms",
              mean("core.incremental.add_batch", 1e3));
  report->Set("core.incremental.labels_ms",
              mean("core.incremental.labels", 1e3));
  report->Set("core.incremental.match_only_us",
              mean("core.incremental.match_only", 1e6));
  report->Set("core.incremental.comparisons_per_probe",
              Ratio(static_cast<double>(replay.probe_comparisons),
                    static_cast<double>(replay.probes)));
  report->Set("service.protocol.parse_us", mean("service.protocol.parse", 1e6));
  report->Set("service.protocol.encode_us",
              mean("service.protocol.encode", 1e6));
  report->Set("service.wal.commit_us", mean("service.wal.commit", 1e6));
  report->Set("service.snapshot.save_ms", mean("service.snapshot.save", 1e3));
  report->Set("core.scan.comparisons", comparisons);
  // AddBatch time is mostly the O(N) merge, so only the probe path gives
  // a per-comparison cost.
  report->Set("core.scan.ns_per_comparison",
              Ratio(self("core.incremental.match_only") * 1e9,
                    static_cast<double>(replay.probe_comparisons)));
  report->Set("core.scan.match_ratio",
              Ratio(static_cast<double>(replay.found), comparisons));
  rules_before.ReportSince(comparisons, report);
  report->Set("trace.coverage", Ratio(covered, traced_wall));
  report->Set("trace.overhead_pct",
              Ratio(walls[1] - walls[0], walls[0]) * 100.0);
  return 0;
}

int UsageError(const std::string& message) {
  std::fprintf(stderr, "perfbench_trace: %s\n", message.c_str());
  return kExitUsage;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  mergepurge::ArgParser args(argc, argv);
  if (!args.status().ok()) return UsageError(args.status().message());
  const std::string workload = args.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 0));
  const std::string work_dir = args.GetString("work-dir", "");
  const std::string spans_out = args.GetString("spans-out", "");
  if (work_dir.empty()) return UsageError("--work-dir is required");
  mergepurge::Status optimized = CheckOptimizedBuild();
  if (!optimized.ok()) return UsageError(optimized.message());
  mergepurge::Result<JsonValue> pinned =
      LoadPinned(args.GetString("pinned", ""));
  if (!pinned.ok()) return UsageError(pinned.status().ToString());

  Report report;
  int code = 0;
  if (workload == kBatchWorkload) {
    code = TraceBatch(seed, work_dir, *pinned, &report);
  } else if (const ServiceWorkload* service = FindServiceWorkload(workload)) {
    code = TraceService(*service, seed, work_dir, *pinned, &report);
  } else {
    return UsageError("unknown --workload '" + workload + "'");
  }
  if (code != 0) return code;
  if (!spans_out.empty()) {
    mergepurge::Status written = GlobalTracer().WriteJson(spans_out);
    report.Check(written.ok(), written.ToString());
  }

  JsonValue out = JsonValue::Object();
  out.Set("correct", JsonValue(report.failed == 0));
  out.Set("attempted", JsonValue(report.attempted));
  out.Set("failed", JsonValue(report.failed));
  out.Set("layers", std::move(report.layers));
  std::printf("%s\n", out.Dump(0).c_str());
  return report.failed == 0 ? 0 : kExitFailed;
}
