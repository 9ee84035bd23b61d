// bench_snm — the tracked SNM throughput benchmark. Runs the full
// multi-pass sorted-neighborhood pipeline (three standard keys + closure)
// over a generated database and writes BENCH_snm.json through RunReport,
// so every PR leaves a comparable machine-readable perf point
// (records/s, comparisons/s, per-pass timings, full metrics snapshot).
//
//   bench_snm [--records=20000] [--window=10] [--repeat=3] [--seed=42]
//             [--out=BENCH_snm.json]
//
// The report's "bench" config block carries the best-of-repeat wall time
// and derived throughput; passes/closure/counters come from the best run.
// Two window-scan layer numbers for that run sit beside them:
// ns_per_comparison (the passes' summed scan busy time over comparisons,
// a per-thread figure: the passes scan concurrently on one worker pool
// sized to the CPU affinity, so best_seconds is wall time) and
// distance_calls_per_comparison (the rules.distance_calls counter over
// comparisons). condition_seconds is the one-time conditioning of the
// generated records, which happens before, and outside, every timed run.

#include <cstdio>
#include <string>
#include <vector>

#include "core/merge_purge.h"
#include "eval/experiment.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"
#include "util/timer.h"

using namespace mergepurge;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.status().ok()) {
    std::fprintf(stderr, "bench_snm: %s\n", args.status().message().c_str());
    return 2;
  }
  const size_t records = static_cast<size_t>(args.GetInt("records", 20000));
  const size_t window = static_cast<size_t>(args.GetInt("window", 10));
  const int repeat = static_cast<int>(args.GetInt("repeat", 3));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string out = args.GetString("out", "BENCH_snm.json");

  GeneratorConfig gen_config;
  gen_config.num_records = records;
  gen_config.seed = seed;
  Result<GeneratedDatabase> generated =
      DatabaseGenerator(gen_config).Generate();
  if (!generated.ok()) {
    std::fprintf(stderr, "bench_snm: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  Timer condition_timer;
  ConditionEmployeeDataset(&generated->dataset);
  const double condition_seconds = condition_timer.ElapsedSeconds();
  const Dataset& dataset = generated->dataset;

  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  options.window = window;
  options.condition_records = false;  // Conditioned once above.
  MergePurgeEngine engine(options);
  EmployeeTheory theory;

  // Best-of-repeat: the minimum is the least-noisy throughput estimate.
  // The registry is zeroed before every run and captured after the best
  // one, so the report's counters cover exactly the run its passes do.
  RunReport report("bench_snm");
  double best_seconds = 0.0;
  uint64_t best_distance_calls = 0;
  Result<MergePurgeResult> best = Status::NotFound("no run");
  for (int r = 0; r < repeat; ++r) {
    MetricsRegistry::Global().Reset();
    Timer timer;
    Result<MergePurgeResult> result = engine.Run(dataset, theory);
    const double seconds = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "bench_snm: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "run %d/%d: %.3fs, %zu entities\n", r + 1, repeat,
                 seconds, result->num_entities);
    if (!best.ok() || seconds < best_seconds) {
      best_seconds = seconds;
      best = std::move(result);
      report.CaptureMetrics();
      best_distance_calls = MetricsRegistry::Global()
                                .GetCounter(metric_names::kRulesDistanceCalls)
                                ->Value();
    }
  }

  uint64_t comparisons = 0;
  double scan_seconds = 0.0;
  for (const PassResult& pass : best->detail.passes) {
    comparisons += pass.comparisons;
    scan_seconds += pass.scan_seconds;
  }
  const double per_comparison =
      comparisons > 0 ? 1.0 / static_cast<double>(comparisons) : 0.0;
  const double records_per_s =
      best_seconds > 0 ? static_cast<double>(dataset.size()) / best_seconds
                       : 0.0;
  const double comparisons_per_s =
      best_seconds > 0 ? static_cast<double>(comparisons) / best_seconds
                       : 0.0;

  // Generator originals; dataset.records counts them plus duplicates.
  report.SetConfig("base_records",
                   JsonValue(static_cast<uint64_t>(records)));
  report.SetConfig("window", JsonValue(static_cast<uint64_t>(window)));
  report.SetConfig("repeat", JsonValue(static_cast<uint64_t>(repeat)));
  report.SetConfig("seed", JsonValue(seed));
  report.SetConfig("condition_seconds", JsonValue(condition_seconds));
  report.SetConfig("best_seconds", JsonValue(best_seconds));
  report.SetConfig("records_per_second", JsonValue(records_per_s));
  report.SetConfig("comparisons_per_second", JsonValue(comparisons_per_s));
  report.SetConfig("ns_per_comparison",
                   JsonValue(scan_seconds * 1e9 * per_comparison));
  report.SetConfig(
      "distance_calls_per_comparison",
      JsonValue(static_cast<double>(best_distance_calls) * per_comparison));
  report.SetDataset(dataset.size(), dataset.schema().num_fields());
  report.SetMultiPass(best->detail);
  report.SetOutcome(true);
  Status write = report.WriteToFile(out);
  if (!write.ok()) {
    std::fprintf(stderr, "bench_snm: %s\n", write.ToString().c_str());
    return 1;
  }

  std::printf("snm multi-pass: %zu records, window %zu: best %.3fs "
              "(%.0f records/s, %.0f comparisons/s) -> %s\n",
              dataset.size(), window, best_seconds, records_per_s,
              comparisons_per_s, out.c_str());
  return 0;
}
