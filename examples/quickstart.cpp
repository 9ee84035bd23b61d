// Quickstart: generate a noisy mailing-list database, run the multi-pass
// merge/purge engine over it, and report accuracy against ground truth.
//
//   ./build/examples/quickstart [--records=20000] [--window=10]

#include <cstdio>

#include "core/merge_purge.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"

using namespace mergepurge;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.status().ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 1;
  }

  // 1. Generate a database with known duplicates (stand-in for your own
  //    concatenated record sources).
  GeneratorConfig gen_config;
  gen_config.num_records = static_cast<size_t>(args.GetInt("records", 20000));
  gen_config.duplicate_selection_rate = 0.5;
  gen_config.max_duplicates_per_record = 5;
  gen_config.seed = 42;
  auto db = DatabaseGenerator(gen_config).Generate();
  if (!db.ok()) {
    std::fprintf(stderr, "generate: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("input: %zu records (%llu are duplicates of another)\n",
              db->dataset.size(),
              static_cast<unsigned long long>(
                  db->truth.NumDuplicateTuples()));

  // 2. Configure the engine: multi-pass sorted-neighborhood over the three
  //    standard keys, small window, conditioning on.
  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  options.window = static_cast<size_t>(args.GetInt("window", 10));
  MergePurgeEngine engine(options);

  // 3. Run with the 26-rule employee equational theory.
  EmployeeTheory theory;
  auto result = engine.Run(db->dataset, theory);
  if (!result.ok()) {
    std::fprintf(stderr, "run: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // 4. Inspect the outcome.
  std::printf("found %zu distinct entities (%.1f%% shrink)\n",
              result->num_entities,
              100.0 * (1.0 - static_cast<double>(result->num_entities) /
                                 static_cast<double>(db->dataset.size())));
  // The passes scan concurrently, so their busy times add up to more
  // than the run's wall time.
  for (const PassResult& pass : result->detail.passes) {
    std::printf("  pass '%s': %zu pairs, %.2fs busy (%.2fs scanning)\n",
                pass.key_name.c_str(), pass.pairs.size(),
                pass.total_seconds, pass.scan_seconds);
  }
  std::printf("  closure: %.3fs over %llu distinct pairs; run wall %.3fs\n",
              result->detail.closure_seconds,
              static_cast<unsigned long long>(
                  result->detail.union_pair_count),
              result->detail.total_seconds);

  AccuracyReport report =
      EvaluateComponents(result->component_of, db->truth);
  std::printf(
      "accuracy: %.1f%% of true duplicate pairs found, %.2f%% false "
      "positives, precision %.1f%%\n",
      report.recall_percent, report.false_positive_percent,
      report.precision_percent);

  // 5. Purge: one merged record per entity.
  Dataset purged = result->Purge(db->dataset);
  std::printf("purged dataset: %zu records\n", purged.size());
  return 0;
}
