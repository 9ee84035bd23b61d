// Figure 6 reproduction: parallel time vs number of processors for the
// sorted-neighborhood and clustering methods (1,000,000 records, w = 10 in
// the paper; 100 clusters per processor for the clustering method).
//
// Substitution (DESIGN.md §2): the paper measured an 8-node HP cluster;
// this bench runs on one shared-memory host. It
//   1. runs the REAL thread-based pass executor (MultiPass over one key)
//      and verifies it produces exactly the serial pair set and
//      comparison count,
//   2. calibrates the shared-nothing cost model from measured serial phase
//      costs and prints the modeled per-P times at the paper's database
//      size — figure 6's sublinear-speedup shape and the clustering
//      method's advantage — and
//   3. for every P up to the CPUs the process may use, measures the
//      multi-pass SNM run's wall time on the measurement database with
//      the process pinned to P CPUs (as `taskset` would), and prints its
//      speedup beside the model's.
//
//   ./build/bench/fig6_parallel [--scale=0.01] [--seed=42] [--max_procs=8]

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

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

// Pins the calling thread, and so the worker threads it starts, to the
// first `p` CPUs of `allowed`, as `taskset` would.
bool PinToCpus(const cpu_set_t& allowed, size_t p) {
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  size_t taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < p; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pinned);
    ++taken;
  }
  return sched_setaffinity(0, sizeof(pinned), &pinned) == 0;
}

// Best-of-3 wall time of the multi-pass SNM run pinned to `p` CPUs (the
// run sizes its worker pool from the affinity); negative on failure.
double MeasuredMultipassSeconds(const Dataset& dataset,
                                const std::vector<KeySpec>& keys,
                                const EquationalTheory& theory,
                                const cpu_set_t& allowed, size_t p,
                                size_t window) {
  double best = -1.0;
  if (PinToCpus(allowed, p)) {
    MultiPass mp(MultiPass::Method::kSortedNeighborhood, window);
    for (int run = 0; run < 3; ++run) {
      auto result = mp.Run(dataset, keys, theory);
      if (!result.ok()) break;
      if (best < 0 || result->total_seconds < best) {
        best = result->total_seconds;
      }
    }
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.status().ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 1;
  }
  const double scale = args.GetDouble("scale", 0.01);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const size_t max_procs =
      static_cast<size_t>(args.GetInt("max_procs", 8));
  const size_t kWindow = 10;

  GeneratorConfig config = PaperGeneratorConfig(1000000, 0.5, 5, scale, seed);
  auto db = DatabaseGenerator(config).Generate();
  if (!db.ok()) {
    std::fprintf(stderr, "generate: %s\n", db.status().ToString().c_str());
    return 1;
  }
  ConditionEmployeeDataset(&db->dataset);
  const size_t n = db->dataset.size();
  // The modeled cluster runs at the PAPER's database size so the series is
  // comparable to figure 6 directly.
  const size_t model_n = static_cast<size_t>(2423644);
  std::printf(
      "fig6: parallel time vs processors (w=10)\n"
      "measurement database: %zu records (scale=%.4g); model projected to "
      "the paper's %zu records\n\n",
      n, scale, model_n);

  const std::vector<KeySpec> keys = StandardThreeKeys();
  EmployeeTheory theory;

  // --- Functional check: thread executor == serial. ---
  {
    auto serial = SortedNeighborhood(kWindow).Run(db->dataset, keys[0],
                                                  theory);
    if (!serial.ok()) return 1;
    auto parallel = MultiPass(MultiPass::Method::kSortedNeighborhood, kWindow)
                        .Run(db->dataset, {keys[0]}, theory);
    if (!parallel.ok()) return 1;
    const PassResult& pass = parallel->passes[0];
    const bool exact =
        pass.pairs.ToSortedVector() == serial->pairs.ToSortedVector() &&
        pass.comparisons == serial->comparisons;
    std::printf("thread-executor check (P=%zu, key=%s): %zu pairs, %llu "
                "comparisons %s\n",
                AvailableCpus(), keys[0].name.c_str(), pass.pairs.size(),
                static_cast<unsigned long long>(pass.comparisons),
                exact ? "== serial (exact)" : "!= serial (BUG)");
  }

  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);

  // --- Calibrate per-key serial cost models (on one CPU, so the fitted
  // per-comparison cost is a serial one). ---
  std::vector<SerialCostModel> fitted;
  double closure_seconds = 0.0;
  {
    PinToCpus(allowed, 1);
    MultiPass mp(MultiPass::Method::kSortedNeighborhood, kWindow);
    auto multi = mp.Run(db->dataset, keys, theory);
    sched_setaffinity(0, sizeof(allowed), &allowed);
    if (!multi.ok()) return 1;
    closure_seconds = multi->closure_seconds * (static_cast<double>(model_n) /
                                                static_cast<double>(n));
    for (const PassResult& pass : multi->passes) {
      fitted.push_back(SerialCostModel::Fit(pass, n));
    }
  }

  // LPT imbalance of the clustering method's real partition: 100
  // clusters per processor (the paper's setting) dealt to P = 4.
  ClusteringOptions cluster_options;
  cluster_options.num_clusters = 100 * 4;
  PassResult cluster_pass;
  auto clustered =
      ClusterOrder(db->dataset, keys[0], cluster_options, &cluster_pass);
  if (!clustered.ok()) return 1;
  const double imbalance = LptAssign(clustered->Sizes(), 4).imbalance;

  // --- Modeled figure 6 series (paper-ratio I/O calibration). ---
  auto make_cluster = [&](const SerialCostModel& m) {
    return SimulatedCluster(
        CalibrateLikePaper(m, model_n, kWindow, imbalance));
  };

  // Measured: the real multi-pass run on this host for P <= its CPUs.
  const size_t cpus = AvailableCpus();
  std::vector<double> measured(max_procs + 1, -1.0);
  for (size_t p = 1; p <= std::min(max_procs, cpus); ++p) {
    measured[p] = MeasuredMultipassSeconds(db->dataset, keys, theory,
                                           allowed, p, kWindow);
  }

  std::printf(
      "\n(a) sorted-neighborhood method: modeled seconds at %zu records; "
      "measured multipass wall at %zu records on %zu CPUs\n",
      model_n, n, cpus);
  TablePrinter snm_table({"P", "last-name", "first-name", "address",
                          "multipass (3P procs + closure)", "model speedup",
                          "measured wall (s)", "measured speedup"});
  double modeled_p1 = 0.0;
  for (size_t p = 1; p <= max_procs; ++p) {
    std::vector<std::string> row = {std::to_string(p)};
    double slowest = 0.0;
    for (size_t k = 0; k < keys.size(); ++k) {
      double t = make_cluster(fitted[k]).SnmPassSeconds(model_n, kWindow, p);
      slowest = std::max(slowest, t);
      row.push_back(FormatDouble(t, 1));
    }
    // "The total time, if we run all runs concurrently, is approximately
    // the maximum time taken by any independent run plus the time to
    // compute the closure."
    const double modeled = slowest + closure_seconds;
    if (p == 1) modeled_p1 = modeled;
    row.push_back(FormatDouble(modeled, 1));
    row.push_back(FormatDouble(modeled_p1 / modeled, 2) + "x");
    if (measured[p] > 0 && measured[1] > 0) {
      row.push_back(FormatDouble(measured[p], 3));
      row.push_back(FormatDouble(measured[1] / measured[p], 2) + "x");
    } else {
      row.push_back("-");
      row.push_back("-");
    }
    snm_table.AddRow(std::move(row));
  }
  snm_table.Print();

  std::printf("\n(b) clustering method, modeled seconds (100 clusters/P)\n");
  TablePrinter cl_table({"P", "last-name", "first-name", "address",
                         "multipass (3P procs + closure)"});
  for (size_t p = 1; p <= max_procs; ++p) {
    std::vector<std::string> row = {std::to_string(p)};
    double slowest = 0.0;
    for (size_t k = 0; k < keys.size(); ++k) {
      double t = make_cluster(fitted[k])
                     .ClusteringPassSeconds(model_n, kWindow, p, 100);
      slowest = std::max(slowest, t);
      row.push_back(FormatDouble(t, 1));
    }
    row.push_back(FormatDouble(slowest + closure_seconds, 1));
    cl_table.AddRow(std::move(row));
  }
  cl_table.Print();

  std::printf(
      "\nLPT imbalance used: %.3f; expected shape: sublinear speedup "
      "(coordinator broadcast is serial), clustering faster than SNM.\n",
      imbalance);
  return 0;
}
