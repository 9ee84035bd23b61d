// Figure 3 reproduction: clustering method vs sorted-neighborhood method
// on one processor.
//
// Paper workload: 250,000 originals, 35% selected for duplication, at most
// 5 duplicates each (468,730 records total); 3 independent runs (one per
// standard key) + transitive closure; the clustering method initially
// divides the data into 32 clusters.
//   (a) average time of all single-pass runs, per method
//   (b) accuracy per window, per method, plus the multi-pass closure
//
// Expected shape: clustering is faster per pass (smaller sorts) but the
// time gap is modest because window scanning dominates; SNM's accuracy
// edges higher (variable-length vs fixed-size sort key); the multi-pass
// closure exceeds 90% for w > 4 under either method.
//
//   ./build/bench/fig3_cluster_vs_snm [--scale=0.04] [--seed=42]

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

using namespace mergepurge;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.status().ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 1;
  }
  const double scale = args.GetDouble("scale", 0.04);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  GeneratorConfig config = PaperGeneratorConfig(250000, 0.35, 5, scale, seed);
  auto db = DatabaseGenerator(config).Generate();
  if (!db.ok()) {
    std::fprintf(stderr, "generate: %s\n", db.status().ToString().c_str());
    return 1;
  }
  ConditionEmployeeDataset(&db->dataset);
  std::printf(
      "fig3: clustering method vs sorted-neighborhood method (1 processor)\n"
      "database: %zu records (scale=%.4g of the paper's 468,730)\n\n",
      db->dataset.size(), scale);

  const std::vector<KeySpec> keys = StandardThreeKeys();
  EmployeeTheory theory;
  ClusteringOptions cluster_options;
  cluster_options.num_clusters = 32;  // Paper: merge-sort fan-out.

  const std::vector<size_t> windows = {2, 4, 6, 8, 10, 15, 20};

  TablePrinter time_table(
      {"window", "snm avg pass(s)", "clustering avg pass(s)",
       "snm multipass(s)", "clustering multipass(s)"});
  TablePrinter accuracy_table(
      {"window", "snm single-pass", "clustering single-pass",
       "snm multipass", "clustering multipass"});

  for (size_t w : windows) {
    cluster_options.window = w;
    MultiPass snm_mp(MultiPass::Method::kSortedNeighborhood, w);
    MultiPass cluster_mp(MultiPass::Method::kClustering, w,
                         cluster_options);
    auto snm = snm_mp.Run(db->dataset, keys, theory);
    auto cluster = cluster_mp.Run(db->dataset, keys, theory);
    if (!snm.ok() || !cluster.ok()) {
      std::fprintf(stderr, "w=%zu failed\n", w);
      return 1;
    }

    auto avg_pass_time = [](const MultiPassResult& r) {
      double total = 0;
      for (const PassResult& pass : r.passes) total += pass.total_seconds;
      return total / static_cast<double>(r.passes.size());
    };
    auto avg_pass_recall = [&](const MultiPassResult& r) {
      double total = 0;
      for (const PassResult& pass : r.passes) {
        total += EvaluatePairSet(pass.pairs, db->dataset.size(), db->truth)
                     .recall_percent;
      }
      return total / static_cast<double>(r.passes.size());
    };

    time_table.AddRow(
        {std::to_string(w), FormatDouble(avg_pass_time(*snm)),
         FormatDouble(avg_pass_time(*cluster)),
         FormatDouble(snm->busy_seconds()),
         FormatDouble(cluster->busy_seconds())});
    accuracy_table.AddRow(
        {std::to_string(w), FormatPercent(avg_pass_recall(*snm)),
         FormatPercent(avg_pass_recall(*cluster)),
         FormatPercent(
             EvaluateComponents(snm->component_of, db->truth)
                 .recall_percent),
         FormatPercent(
             EvaluateComponents(cluster->component_of, db->truth)
                 .recall_percent)});
  }

  std::printf("(a) time (average single pass and full multi-pass)\n");
  time_table.Print();
  std::printf("\n(b) accuracy (percent of true duplicate pairs found)\n");
  accuracy_table.Print();
  return 0;
}
