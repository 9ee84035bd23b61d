// mergepurge — command-line merge/purge over CSV record sources.
//
//   mergepurge --input=a.csv,b.csv --output=deduped.csv
//              [--method=snm|cluster]      (default snm)
//              [--window=10]
//              [--keys=last-name,first-name,address]   (default all three)
//              [--rules=theory.rules]      (rule-language file; default:
//                                           built-in 26-rule employee theory)
//              [--clusters=32]             (clustering method only)
//              [--spell-city]              (corpus spell-correct the city)
//              [--entities=entities.csv]   (tuple -> entity id mapping)
//              [--report]                  (per-pass statistics)
//              [--pairs-out=PREFIX]        (store each pass's pairs in
//                                           PREFIX.<key>.mpp for pipelined
//                                           closure across invocations)
//              [--pairs-in=a.mpp,b.mpp]    (ALSO union previously stored
//                                           pair files into the closure —
//                                           the paper's §4.1 operation)
//              [--resume=DIR]              (checkpoint each pass under DIR
//                                           and skip passes already
//                                           completed there; an
//                                           interrupted run restarted with
//                                           the same flags resumes instead
//                                           of starting over)
//              [--gen=N]                   (instead of --input: synthesize
//                                           N original records plus
//                                           duplicates with the paper's
//                                           generator)
//              [--gen-seed=S]              (generator seed; default 42)
//              [--metrics-out=FILE.json]   (machine-readable run report:
//                                           config, per-pass stats, full
//                                           metrics snapshot)
//              [--trace-out=FILE.json]     (phase spans in Chrome
//                                           trace-event format; load in
//                                           chrome://tracing or Perfetto)
//              [--progress]                (live phase progress on stderr)
//              [--log-level=LEVEL]         (debug|info|warning|error)
//              [--rules-check]             (preflight the theory through
//                                           the static analyzer; lint
//                                           errors abort the run before
//                                           any data is read — see
//                                           docs/rule_lints.md)
//
// Exit codes: 0 success, 1 runtime failure (I/O, parse, engine), 2 usage
// error (unknown flag, bad flag value, missing required flag).
//
// Inputs must share the employee schema header:
//   ssn,first_name,initial,last_name,address,apartment,city,state,zip

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/merge_purge.h"
#include "eval/experiment.h"
#include "eval/table_printer.h"
#include "core/multipass.h"
#include "gen/generator.h"
#include "io/chunked_write.h"
#include "io/csv.h"
#include "io/pairs_io.h"
#include "keys/standard_keys.h"
#include "obs/drain.h"
#include "obs/progress.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "rules/theory_loader.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

using namespace mergepurge;

namespace {

constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

constexpr const char* kUsage =
    "usage: mergepurge --input=a.csv[,b.csv...] --output=deduped.csv "
    "[--method=snm|cluster] [--window=N] [--keys=...] [--rules=FILE] "
    "[--clusters=N] [--spell-city] [--entities=FILE] [--report] "
    "[--pairs-out=PREFIX] [--pairs-in=a.mpp,...] [--resume=DIR] "
    "[--gen=N] [--gen-seed=S] [--metrics-out=FILE.json] "
    "[--trace-out=FILE.json] [--progress] [--log-level=LEVEL] "
    "[--rules-check]";

// Every flag the tool understands; anything else is a usage error.
constexpr const char* kKnownFlags[] = {
    "input",    "output",   "method",   "window",   "keys",
    "rules",    "clusters", "spell-city", "entities", "report",
    "pairs-out", "pairs-in", "resume",  "gen",      "gen-seed",
    "metrics-out", "trace-out", "progress", "log-level", "rules-check",
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "mergepurge: %s\n", message.c_str());
  return kExitRuntime;
}

int UsageError(const std::string& message) {
  std::fprintf(stderr, "mergepurge: %s\n%s\n", message.c_str(), kUsage);
  return kExitUsage;
}

// Frees the records of `dataset` a range per worker: freed one by one on
// the main thread at exit, they were the run's last serial phase.
// Records that one thread allocated share one malloc arena, whose lock
// serialises their frees, so those are freed with workers = 1: on a
// 4-core host, 4 threads freed the generator's 10^6 records in 1.7 s and
// one thread in 1.0 s.
void ReleaseRecords(Dataset* dataset, size_t workers) {
  ParallelFor(dataset->size(), workers, [dataset](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      dataset->mutable_record(static_cast<TupleId>(t)) = Record();
    }
  });
  dataset->Clear();
}

}  // namespace

int main(int argc, char** argv) {
  // Before any thread exists, so every thread inherits the blocked mask.
  SignalDrain::Global().Install();

  ArgParser args(argc, argv);
  if (!args.status().ok()) {
    return UsageError(args.status().message());
  }
  const std::string unknown = args.FirstUnknownFlag(kKnownFlags);
  if (!unknown.empty()) return UsageError("unknown flag --" + unknown);
  if (args.Has("input") == args.Has("gen")) {
    return UsageError("exactly one of --input and --gen is required");
  }
  if (!args.Has("output")) {
    return UsageError("--output is required");
  }

  Status log_level = ApplyLogLevelFlag(args);
  if (!log_level.ok()) return UsageError(log_level.message());
  int64_t gen_records = args.GetInt("gen", 0);
  if (args.Has("gen") && gen_records < 1) {
    return UsageError("--gen must be >= 1 (got " +
                      args.GetString("gen", "") + ")");
  }
  if (args.GetBool("progress", false)) {
    ProgressReporter::Global().Enable();
  }
  if (args.Has("trace-out")) {
    TraceRecorder::Global().Enable();
  }

  // SIGINT/SIGTERM mid-run still flush the observability outputs (the
  // same drain helper the service uses, obs/drain.h): the report is
  // marked interrupted so downstream tooling can tell a partial run from
  // a complete one. SignalDrain then exits with the conventional 128+sig.
  if (args.Has("metrics-out") || args.Has("trace-out")) {
    const std::string metrics_path = args.GetString("metrics-out", "");
    const std::string trace_path = args.GetString("trace-out", "");
    SignalDrain::Global().OnSignal([metrics_path, trace_path](int signo) {
      if (!metrics_path.empty()) {
        RunReport run_report("mergepurge");
        run_report.SetOutcome(
            false, StringPrintf("interrupted by signal %d", signo));
        run_report.CaptureMetrics();
        Status report_write = run_report.WriteToFile(metrics_path);
        if (report_write.ok()) {
          std::fprintf(stderr, "wrote interrupted run report to %s\n",
                       metrics_path.c_str());
        }
      }
      if (!trace_path.empty()) {
        Status trace_write =
            TraceRecorder::Global().ExportChromeJson(trace_path);
        if (trace_write.ok()) {
          std::fprintf(stderr, "wrote interrupted trace to %s\n",
                       trace_path.c_str());
        }
      }
    });
  }

  // --- Configure the engine (all usage validation happens before any
  // input is read, so bad flags exit 2 even when inputs are bad too). ---
  MergePurgeOptions options;
  Result<std::vector<KeySpec>> keys = KeysFromNames(
      args.GetString("keys", "last-name,first-name,address"));
  if (!keys.ok()) return UsageError(keys.status().message());
  options.keys = std::move(*keys);
  Result<size_t> window = WindowFlag(args);
  if (!window.ok()) return UsageError(window.status().message());
  options.window = *window;
  options.spell_correct_city = args.GetBool("spell-city", false);
  options.checkpoint_dir = args.GetString("resume", "");
  std::string method = args.GetString("method", "snm");
  if (method == "cluster") {
    options.method = MergePurgeOptions::Method::kClustering;
    int64_t clusters = args.GetInt("clusters", 32);
    if (clusters < 1) {
      return UsageError("--clusters must be >= 1 (got " +
                        args.GetString("clusters", "") + ")");
    }
    options.clustering.num_clusters = static_cast<size_t>(clusters);
  } else if (method != "snm") {
    return UsageError("unknown --method '" + method +
                      "' (expected snm or cluster)");
  }

  // --- Theory: built-in or a rule-language file, loaded before any data
  // is read. --rules-check lints it (without --rules, the built-in rule
  // text) and lint errors abort the run. ---
  Schema schema = employee::MakeSchema();
  Result<LoadedTheory> loaded =
      LoadCheckedTheory(args.GetString("rules", ""), schema,
                        args.GetBool("rules-check", false), " (see above)");
  if (!loaded.ok()) return Fail(loaded.status().message());

  // --- Load and concatenate the sources (or synthesize them). ---
  Dataset combined(schema);
  if (args.Has("gen")) {
    Span span("generate");
    GeneratorConfig gen_config;
    gen_config.num_records = static_cast<size_t>(gen_records);
    gen_config.seed = static_cast<uint64_t>(args.GetInt("gen-seed", 42));
    Result<GeneratedDatabase> generated =
        DatabaseGenerator(gen_config).Generate();
    if (!generated.ok()) return Fail(generated.status().ToString());
    combined = std::move(generated->dataset);
    std::fprintf(stderr, "generated %zu records (%lld originals)\n",
                 combined.size(), static_cast<long long>(gen_records));
  }
  const std::string input_list =
      args.Has("input") ? args.GetString("input", "") : std::string();
  for (std::string_view path_view :
       input_list.empty() ? std::vector<std::string_view>{}
                          : SplitView(input_list, ',')) {
    std::string path(path_view);
    Span span("csv-read");
    span.AddArg("path", path);
    Result<Dataset> source = ReadCsvFile(schema, path);
    if (!source.ok()) {
      return Fail(path + ": " + source.status().ToString());
    }
    std::fprintf(stderr, "loaded %s (%zu records)\n", path.c_str(),
                 source->size());
    if (combined.empty()) {
      combined = std::move(*source);
      continue;
    }
    Status concat = combined.Concatenate(*source);
    if (!concat.ok()) return Fail(concat.ToString());
  }
  if (combined.empty()) return Fail("no input records");

  // --- Run. ---
  std::unique_ptr<EquationalTheory> theory = loaded->factory();
  MergePurgeEngine engine(options);
  Result<MergePurgeResult> result = engine.Run(combined, *theory);
  if (!result.ok()) return Fail(result.status().ToString());
  if (!options.checkpoint_dir.empty()) {
    std::fprintf(stderr, "resumed %zu of %zu passes from %s\n",
                 result->detail.passes_resumed,
                 result->detail.passes.size(),
                 options.checkpoint_dir.c_str());
  }

  if (args.GetBool("report", false)) {
    // A pass's scan runs as fragments on worker threads: its scan time is
    // their summed busy time, so the passes can add up to more than the
    // run's wall time.
    TablePrinter table({"pass", "pairs", "comparisons", "keys+sort(s)",
                        "scan busy(s)"});
    for (const PassResult& pass : result->detail.passes) {
      table.AddRow({pass.key_name, FormatCount(pass.pairs.size()),
                    FormatCount(pass.comparisons),
                    FormatDouble(
                        pass.create_keys_seconds + pass.sort_seconds, 3),
                    FormatDouble(pass.scan_seconds, 3)});
    }
    table.Print();
    std::printf("closure: %.3fs over %llu distinct pairs; run wall: %.3fs\n",
                result->detail.closure_seconds,
                static_cast<unsigned long long>(
                    result->detail.union_pair_count),
                result->detail.total_seconds);
  }

  // --- Pipelined pair storage / reuse (paper §4.1). ---
  if (args.Has("pairs-out")) {
    Span span("pairs-write");
    std::string prefix = args.GetString("pairs-out", "pairs");
    for (const PassResult& pass : result->detail.passes) {
      std::string path = prefix + "." + pass.key_name + ".mpp";
      Status write_pairs = WritePairSetFile(pass.pairs, path);
      if (!write_pairs.ok()) return Fail(write_pairs.ToString());
      std::fprintf(stderr, "stored %zu pairs in %s\n", pass.pairs.size(),
                   path.c_str());
    }
  }
  if (args.Has("pairs-in")) {
    const std::string pair_list = args.GetString("pairs-in", "");
    PairSet combined_pairs;
    for (const PassResult& pass : result->detail.passes) {
      combined_pairs.Merge(pass.pairs);
    }
    for (std::string_view path_view : SplitView(pair_list, ',')) {
      Result<PairSet> stored =
          ReadPairSetFile(std::string(path_view), combined.size());
      if (!stored.ok()) return Fail(stored.status().ToString());
      std::fprintf(stderr, "unioned %zu pairs from %.*s\n", stored->size(),
                   static_cast<int>(path_view.size()), path_view.data());
      combined_pairs.Merge(*stored);
    }
    result->component_of =
        TransitiveClosure({&combined_pairs}, combined.size());
  }

  // --- Purge (with the rules file's merge directives) and write. ---
  Dataset purged(schema);
  {
    Span span("purge");
    Result<Dataset> merged =
        loaded->purge_policy.Purge(combined, result->component_of);
    if (!merged.ok()) return Fail(merged.status().ToString());
    purged = std::move(*merged);
  }
  std::string out_path = args.GetString("output", "");
  {
    Span span("csv-write");
    span.AddArg("path", out_path);
    Status write = WriteCsvFile(purged, out_path);
    if (!write.ok()) return Fail(write.ToString());
  }
  const size_t num_records = combined.size();
  std::fprintf(stderr, "%zu records -> %zu entities -> %s\n", num_records,
               purged.size(), out_path.c_str());
  {
    Span span("release");
    // The generator builds its records on the main thread, the CSV reader
    // and the purge on the pool.
    ReleaseRecords(&combined, args.Has("gen") ? 1 : AvailableCpus());
    ReleaseRecords(&purged, AvailableCpus());
  }

  // Optional tuple -> entity mapping.
  if (args.Has("entities")) {
    Span span("csv-write");
    const std::vector<uint32_t>& labels = result->component_of;
    std::string entities_path = args.GetString("entities", "");
    Status entities_write = WriteRowsInChunks(
        entities_path, "tuple_id,entity_id\n", labels.size(),
        [&labels](size_t begin, size_t end, std::string* out) {
          for (size_t t = begin; t < end; ++t) {
            *out += std::to_string(t);
            *out += ',';
            *out += std::to_string(labels[t]);
            *out += '\n';
          }
        });
    if (!entities_write.ok()) return Fail(entities_write.ToString());
    std::fprintf(stderr, "wrote entity mapping to %s\n",
                 entities_path.c_str());
  }

  // --- Observability outputs (after all pipeline work). ---
  if (args.Has("metrics-out")) {
    RunReport run_report("mergepurge");
    run_report.SetConfig("method", JsonValue(method));
    run_report.SetConfig("window",
                         JsonValue(static_cast<uint64_t>(options.window)));
    run_report.SetConfig(
        "keys", JsonValue(args.GetString("keys",
                                         "last-name,first-name,address")));
    if (args.Has("gen")) {
      run_report.SetConfig("gen",
                           JsonValue(static_cast<uint64_t>(gen_records)));
      run_report.SetConfig(
          "gen_seed",
          JsonValue(static_cast<uint64_t>(args.GetInt("gen-seed", 42))));
    } else {
      run_report.SetConfig("input", JsonValue(input_list));
    }
    run_report.SetDataset(num_records, schema.num_fields());
    run_report.SetMultiPass(result->detail);
    run_report.SetOutcome(true);
    run_report.CaptureMetrics();
    std::string metrics_path = args.GetString("metrics-out", "");
    Status report_write = run_report.WriteToFile(metrics_path);
    if (!report_write.ok()) return Fail(report_write.ToString());
    std::fprintf(stderr, "wrote run report to %s\n", metrics_path.c_str());
  }
  if (args.Has("trace-out")) {
    std::string trace_path = args.GetString("trace-out", "");
    Status trace_write =
        TraceRecorder::Global().ExportChromeJson(trace_path);
    if (!trace_write.ok()) return Fail(trace_write.ToString());
    std::fprintf(stderr, "wrote %zu trace spans to %s\n",
                 TraceRecorder::Global().span_count(), trace_path.c_str());
  }
  return 0;
}
