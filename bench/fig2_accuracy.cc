// Figure 2 reproduction: accuracy of the sorted-neighborhood method as a
// function of window size, for three single-pass keys and the multi-pass
// transitive closure over them.
//
// Paper workload: 1,000,000 original records + 1,423,644 duplicates with
// varying errors; window sizes 2..50.
//   (a) percent of correctly detected duplicated pairs
//   (b) percent of incorrectly detected duplicated pairs (false positives)
//
// Expected shape: each single pass finds 50-70% and flattens quickly with
// w; the multi-pass closure reaches ~90%; false positives are small, grow
// slowly with w, and grow faster for the closure than for single passes.
//
//   ./build/bench/fig2_accuracy [--scale=0.01] [--seed=42] [--windows=...]

#include <cstdio>
#include <string>
#include <vector>

#include "core/multipass.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"
#include "util/string_util.h"

using namespace mergepurge;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.status().ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 1;
  }
  const double scale = args.GetDouble("scale", 0.01);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  // Paper: 1M originals, ~1.42 duplicates per original on average
  // (50% selected, 1..5 duplicates each, as a record "may be duplicated
  // more than once").
  GeneratorConfig config =
      PaperGeneratorConfig(1000000, 0.5, 5, scale, seed);
  auto db = DatabaseGenerator(config).Generate();
  if (!db.ok()) {
    std::fprintf(stderr, "generate: %s\n", db.status().ToString().c_str());
    return 1;
  }
  ConditionEmployeeDataset(&db->dataset);
  std::printf(
      "fig2: accuracy vs window size\n"
      "database: %zu originals + %llu duplicates = %zu records "
      "(scale=%.4g of the paper's 1M)\n\n",
      config.num_records,
      static_cast<unsigned long long>(db->truth.NumDuplicateTuples()),
      db->dataset.size(), scale);

  std::vector<size_t> windows = {2, 5, 10, 20, 30, 40, 50};
  const std::string windows_flag = args.GetString("windows", "");
  if (args.Has("windows")) {
    windows.clear();
    for (auto part : SplitView(windows_flag, ',')) {
      windows.push_back(static_cast<size_t>(
          std::strtoull(std::string(part).c_str(), nullptr, 10)));
    }
  }

  const std::vector<KeySpec> keys = StandardThreeKeys();
  EmployeeTheory theory;

  TablePrinter recall_table({"window", "last-name", "first-name", "address",
                             "multipass-3-keys"});
  TablePrinter fp_table({"window", "last-name", "first-name", "address",
                         "multipass-3-keys"});
  TablePrinter time_table({"window", "last-name(s)", "first-name(s)",
                           "address(s)", "multipass(s)"});

  for (size_t w : windows) {
    MultiPass mp(MultiPass::Method::kSortedNeighborhood, w);
    auto result = mp.Run(db->dataset, keys, theory);
    if (!result.ok()) {
      std::fprintf(stderr, "w=%zu: %s\n", w,
                   result.status().ToString().c_str());
      return 1;
    }

    std::vector<std::string> recall_row = {std::to_string(w)};
    std::vector<std::string> fp_row = {std::to_string(w)};
    std::vector<std::string> time_row = {std::to_string(w)};
    for (const PassResult& pass : result->passes) {
      AccuracyReport report =
          EvaluatePairSet(pass.pairs, db->dataset.size(), db->truth);
      recall_row.push_back(FormatPercent(report.recall_percent));
      fp_row.push_back(FormatPercent(report.false_positive_percent));
      time_row.push_back(FormatDouble(pass.total_seconds));
    }
    AccuracyReport multi = EvaluateComponents(result->component_of,
                                              db->truth);
    recall_row.push_back(FormatPercent(multi.recall_percent));
    fp_row.push_back(FormatPercent(multi.false_positive_percent));
    time_row.push_back(FormatDouble(result->busy_seconds()));

    recall_table.AddRow(std::move(recall_row));
    fp_table.AddRow(std::move(fp_row));
    time_table.AddRow(std::move(time_row));
  }

  std::printf("(a) percent of correctly detected duplicated pairs\n");
  recall_table.Print();
  std::printf(
      "\n(b) percent of incorrectly detected duplicated pairs "
      "(false positives / true pairs)\n");
  fp_table.Print();
  std::printf(
      "\ntime per run, s (multi-pass: pass times + closure, its cost on "
      "one CPU)\n");
  time_table.Print();
  return 0;
}
