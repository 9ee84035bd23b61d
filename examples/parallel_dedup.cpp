// Parallel merge/purge (paper §4): runs both methods' passes on the
// thread-based pass executor (banded fragments of the sorted list for
// SNM; one fragment per cluster for the clustering method), verifies
// they reproduce the serial passes, and prints the calibrated cluster
// model's projected times for P = 1..8, with the LPT imbalance of
// dealing `procs` processors 25 clusters each.
//
//   ./build/examples/parallel_dedup [--records=10000] [--procs=4]

#include <cstdio>
#include <vector>

#include "core/clustering_method.h"
#include "core/multipass.h"
#include "core/sorted_neighborhood.h"
#include "eval/experiment.h"
#include "eval/table_printer.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "parallel/cost_model.h"
#include "parallel/load_balance.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"
#include "util/thread_pool.h"

using namespace mergepurge;

namespace {

// Runs `method` over the last-name key on the worker pool and against the
// serial `reference`; prints whether the pair sets are identical.
bool CheckAgainstSerial(const char* label, MultiPass::Method method,
                        const ClusteringOptions& options,
                        const Dataset& dataset, const PassResult& reference,
                        const EquationalTheory& theory) {
  auto run = MultiPass(method, 10, options).Run(dataset, {LastNameKey()},
                                                 theory);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return false;
  }
  const PassResult& pass = run->passes[0];
  const bool identical =
      pass.pairs.ToSortedVector() == reference.pairs.ToSortedVector();
  std::printf("%s (%zu workers): %zu pairs (serial: %zu) -> %s\n", label,
              AvailableCpus(), pass.pairs.size(), reference.pairs.size(),
              identical ? "identical" : "MISMATCH");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.status().ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 1;
  }
  const size_t procs = static_cast<size_t>(args.GetInt("procs", 4));

  GeneratorConfig config;
  config.num_records = static_cast<size_t>(args.GetInt("records", 10000));
  config.duplicate_selection_rate = 0.5;
  config.seed = 3;
  auto db = DatabaseGenerator(config).Generate();
  if (!db.ok()) {
    std::fprintf(stderr, "generate: %s\n", db.status().ToString().c_str());
    return 1;
  }
  ConditionEmployeeDataset(&db->dataset);
  EmployeeTheory theory;

  // Serial reference passes.
  ClusteringOptions cluster_options;
  cluster_options.num_clusters = 25 * procs;
  auto serial = SortedNeighborhood(10).Run(db->dataset, LastNameKey(),
                                           theory);
  auto serial_clustering = ClusteringMethod(cluster_options)
                               .Run(db->dataset, LastNameKey(), theory);
  if (!serial.ok() || !serial_clustering.ok()) {
    std::fprintf(stderr, "serial reference failed\n");
    return 1;
  }

  // The same passes on the worker pool.
  if (!CheckAgainstSerial("parallel SNM",
                          MultiPass::Method::kSortedNeighborhood,
                          cluster_options, db->dataset, *serial, theory) ||
      !CheckAgainstSerial("parallel clustering",
                          MultiPass::Method::kClustering, cluster_options,
                          db->dataset, *serial_clustering, theory)) {
    return 1;
  }

  // Static load balancing of the clusters over `procs` processors: LPT on
  // the cluster sizes (paper §4.2), an input of the cluster model.
  PassResult timings;
  auto clustered = ClusterOrder(db->dataset, LastNameKey(), cluster_options,
                                &timings);
  if (!clustered.ok()) {
    std::fprintf(stderr, "%s\n", clustered.status().ToString().c_str());
    return 1;
  }
  const std::vector<uint64_t> sizes = clustered->Sizes();
  const double imbalance = LptAssign(sizes, procs).imbalance;
  std::printf("LPT imbalance of %zu clusters on %zu processors: %.3f\n\n",
              sizes.size(), procs, imbalance);

  // Project cluster times from the calibrated model (the paper's HP
  // cluster had real parallel hardware; on one host we model, §4).
  SerialCostModel fitted = SerialCostModel::Fit(*serial,
                                                db->dataset.size());
  ClusterModelParams params =
      CalibrateLikePaper(fitted, db->dataset.size(), 10, imbalance);
  SimulatedCluster cluster_model(params);

  TablePrinter table({"P", "snm time(s)", "clustering time(s)", "speedup"});
  double base = cluster_model.SnmPassSeconds(db->dataset.size(), 10, 1);
  for (size_t p = 1; p <= 8; ++p) {
    double snm_time = cluster_model.SnmPassSeconds(db->dataset.size(), 10, p);
    double cl_time = cluster_model.ClusteringPassSeconds(
        db->dataset.size(), 10, p, 100);
    table.AddRow({std::to_string(p), FormatDouble(snm_time, 3),
                  FormatDouble(cl_time, 3),
                  FormatDouble(base / snm_time, 2)});
  }
  std::printf("modeled cluster times (c=%.2e, alpha=%.1f):\n", params.c,
              params.alpha);
  table.Print();
  return 0;
}
