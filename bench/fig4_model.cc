// Figure 4 + §3.5 analytic-model reproduction: time and accuracy for a
// memory-resident database, and the single-pass window W above which the
// multi-pass approach dominates.
//
// Paper workload: 13,751 records (7,500 originals, 50% selected, at most
// 5 duplicates each), fully memory-resident. Three single-pass runs with
// different keys, and the multi-pass closure at w = 10.
//
// Paper numbers to compare against:
//   alpha ~ 6, c ~ 1.2e-5 (1995 hardware; ours differ in magnitude),
//   multi-pass at w=10: 56.5s and 93.4% accuracy,
//   model crossover W > 41; measured single-pass total time reaches the
//   multi-pass time near W ~ 52, with accuracy still 73-80%;
//   no single pass reaches 93% until W > 7000.
//
//   ./build/bench/fig4_model [--scale=1.0] [--seed=42]

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/multipass.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "parallel/cost_model.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"
#include "util/timer.h"

using namespace mergepurge;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.status().ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 1;
  }
  const double scale = args.GetDouble("scale", 1.0);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  GeneratorConfig config = PaperGeneratorConfig(7500, 0.5, 5, scale, seed);
  auto db = DatabaseGenerator(config).Generate();
  if (!db.ok()) {
    std::fprintf(stderr, "generate: %s\n", db.status().ToString().c_str());
    return 1;
  }
  ConditionEmployeeDataset(&db->dataset);
  const size_t n = db->dataset.size();
  std::printf(
      "fig4 + sec3.5: memory-resident database, time/accuracy vs window\n"
      "database: %zu records (paper: 13,751)\n\n",
      n);

  const std::vector<KeySpec> keys = StandardThreeKeys();
  EmployeeTheory theory;
  const size_t kSmallWindow = 10;
  const size_t kPasses = keys.size();

  // --- Multi-pass reference point at w = 10. ---
  MultiPass mp(MultiPass::Method::kSortedNeighborhood, kSmallWindow);
  auto multi = mp.Run(db->dataset, keys, theory);
  if (!multi.ok()) {
    std::fprintf(stderr, "%s\n", multi.status().ToString().c_str());
    return 1;
  }
  AccuracyReport multi_report =
      EvaluateComponents(multi->component_of, db->truth);
  std::printf(
      "multi-pass (3 keys, w=%zu): %.2fs total, accuracy %.1f%% "
      "(paper: 56.5s, 93.4%%)\n\n",
      kSmallWindow, multi->busy_seconds(), multi_report.recall_percent);

  // --- Window sweep for the single passes (figure 4a / 4b). ---
  TablePrinter sweep({"W", "last-name(s)", "first-name(s)", "address(s)",
                      "last-name acc", "first-name acc", "address acc"});
  const std::vector<size_t> sweep_windows = {2,   5,   10,  20,  52,
                                             100, 200, 500, 1000};
  double crossover_measured = -1.0;
  for (size_t w : sweep_windows) {
    std::vector<std::string> row = {std::to_string(w)};
    std::vector<std::string> acc_cells;
    double total_time = 0.0;
    for (const KeySpec& key : keys) {
      auto pass = SortedNeighborhood(w).Run(db->dataset, key, theory);
      if (!pass.ok()) {
        std::fprintf(stderr, "%s\n", pass.status().ToString().c_str());
        return 1;
      }
      AccuracyReport report =
          EvaluatePairSet(pass->pairs, n, db->truth);
      row.push_back(FormatDouble(pass->total_seconds));
      acc_cells.push_back(FormatPercent(report.recall_percent));
      total_time += pass->total_seconds;
    }
    for (std::string& cell : acc_cells) row.push_back(std::move(cell));
    sweep.AddRow(std::move(row));
    // First W where ONE single pass costs more than the whole multi-pass
    // run — the T_sp > T_mp comparison of §3.5.
    double avg_single = total_time / static_cast<double>(keys.size());
    if (crossover_measured < 0 && avg_single > multi->busy_seconds()) {
      crossover_measured = static_cast<double>(w);
    }
  }
  sweep.Print();

  // --- Fit the analytic model from the w=10 last-name pass. ---
  auto calibration_pass =
      SortedNeighborhood(kSmallWindow).Run(db->dataset, keys[0], theory);
  if (!calibration_pass.ok()) return 1;
  SerialCostModel model = SerialCostModel::Fit(*calibration_pass, n);

  // Closure timings: single-pass closure vs multi-pass closure.
  Timer closure_timer;
  TransitiveClosure(calibration_pass->pairs, n);
  model.closure_sp_seconds = closure_timer.ElapsedSeconds();
  model.closure_mp_seconds = multi->closure_seconds;

  double crossover_predicted =
      model.CrossoverWindow(n, kSmallWindow, kPasses);
  std::printf(
      "\nanalytic model (sec 3.5):\n"
      "  fitted c = %.3e s/comparison (paper: 1.2e-5 on a 1995 Sparc 5)\n"
      "  fitted alpha = %.2f (paper: ~6)\n"
      "  T_cl single-pass = %.4fs, T_cl multi-pass = %.4fs\n"
      "  predicted crossover W = %.1f (paper: 41)\n"
      "  measured crossover W ~ %.0f (first sweep point where one single "
      "pass costs more than the whole multi-pass run; paper: ~52)\n",
      model.c, model.alpha, model.closure_sp_seconds,
      model.closure_mp_seconds, crossover_predicted, crossover_measured);

  // --- How large must W grow before a single pass reaches multi-pass
  //     accuracy? (paper: "no single-pass run reaches an accuracy of more
  //     than 93% until W > 7000"). Probe exponentially. ---
  std::printf(
      "\nsingle-pass window needed to reach the multi-pass accuracy "
      "(%.1f%%):\n",
      multi_report.recall_percent);
  size_t w_needed = 0;
  double time_at_w = 0.0;
  for (size_t w = 64; w <= n; w *= 2) {
    auto pass = SortedNeighborhood(w).Run(db->dataset, keys[0], theory);
    if (!pass.ok()) return 1;
    AccuracyReport report = EvaluatePairSet(pass->pairs, n, db->truth);
    std::printf("  W=%-6zu accuracy %.1f%%  time %.2fs\n", w,
                report.recall_percent, pass->total_seconds);
    if (report.recall_percent >= multi_report.recall_percent) {
      w_needed = w;
      time_at_w = pass->total_seconds;
      break;
    }
  }
  if (w_needed > 0) {
    std::printf(
        "  -> reached at W=%zu costing %.2fs vs %.2fs for multi-pass "
        "(%.1fx slower)\n",
        w_needed, time_at_w, multi->busy_seconds(),
        time_at_w / multi->busy_seconds());
  } else {
    std::printf("  -> never reached within W <= N (as in the paper)\n");
  }
  return 0;
}
