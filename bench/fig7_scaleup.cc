// Figure 7 reproduction: scale-up — processing time as the database grows,
// for three duplication rates, for both methods.
//
// Paper workload: 4 base sizes (0.5, 1.0, 1.5, 2.0 x 10^6 originals), each
// with 10%, 30% and 50% of tuples selected for duplication (12 databases);
// three concurrent independent runs (4 processors each) + closure.
// Expected shape: time grows LINEARLY with database size, independent of
// the duplication factor; the paper then extrapolates to 10^9 records
// (~10 days for SNM, ~7 days for clustering on 1995 hardware).
//
//   ./build/bench/fig7_scaleup [--scale=0.01] [--seed=42]

#include <cstdio>
#include <string>
#include <vector>

#include "core/multipass.h"
#include "eval/experiment.h"
#include "eval/table_printer.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"

using namespace mergepurge;

namespace {

// Least-squares linear fit y = a*x + b; returns R^2.
double LinearFitR2(const std::vector<double>& x,
                   const std::vector<double>& y, double* a, double* b) {
  const size_t n = x.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  double denom = n * sxx - sx * sx;
  *a = denom != 0 ? (n * sxy - sx * sy) / denom : 0.0;
  *b = (sy - *a * sx) / n;
  double ss_res = 0, mean = sy / n, ss_tot = 0;
  for (size_t i = 0; i < n; ++i) {
    double fit = *a * x[i] + *b;
    ss_res += (y[i] - fit) * (y[i] - fit);
    ss_tot += (y[i] - mean) * (y[i] - mean);
  }
  return ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
}

// Runs per database; each database's time is the best of them.
constexpr int kRuns = 3;

// The smallest busy time (MultiPassResult::busy_seconds, summed task time)
// of kRuns runs, or -1 when a run fails. Preemption by other work on a
// shared host only ever adds time, so the minimum measures the code.
double BestBusySeconds(const MultiPass& multipass, const Dataset& dataset,
                       const std::vector<KeySpec>& keys,
                       const EquationalTheory& theory) {
  double best = -1.0;
  for (int run = 0; run < kRuns; ++run) {
    auto result = multipass.Run(dataset, keys, theory);
    if (!result.ok()) return -1.0;
    if (best < 0 || result->busy_seconds() < best) {
      best = result->busy_seconds();
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.status().ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 1;
  }
  // At 0.005 each database scans in tens of milliseconds and host noise
  // hides the linear trend (R^2 near 0 on a shared host).
  const double scale = args.GetDouble("scale", 0.01);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  const std::vector<size_t> base_sizes = {500000, 1000000, 1500000, 2000000};
  const std::vector<double> dup_rates = {0.10, 0.30, 0.50};
  const std::vector<KeySpec> keys = StandardThreeKeys();
  EmployeeTheory theory;
  ClusteringOptions cluster_options;
  cluster_options.num_clusters = 32;
  cluster_options.window = 10;

  std::printf(
      "fig7: scale-up, multi-pass (3 keys, w=10), both methods "
      "(scale=%.4g of the paper's sizes)\n\n",
      scale);

  TablePrinter table({"base size", "dup rate", "records", "snm time(s)",
                      "clustering time(s)"});

  // Per-duplication-rate series for the linearity check.
  std::vector<std::vector<double>> xs(dup_rates.size());
  std::vector<std::vector<double>> ys_snm(dup_rates.size());
  std::vector<std::vector<double>> ys_cluster(dup_rates.size());
  double largest_records = 0, largest_snm = 0, largest_cluster = 0;

  for (size_t size_index = 0; size_index < base_sizes.size(); ++size_index) {
    for (size_t rate_index = 0; rate_index < dup_rates.size();
         ++rate_index) {
      GeneratorConfig config = PaperGeneratorConfig(
          base_sizes[size_index], dup_rates[rate_index], 5, scale,
          seed + size_index * 10 + rate_index);
      auto db = DatabaseGenerator(config).Generate();
      if (!db.ok()) {
        std::fprintf(stderr, "generate: %s\n",
                     db.status().ToString().c_str());
        return 1;
      }
      ConditionEmployeeDataset(&db->dataset);

      const double snm = BestBusySeconds(
          MultiPass(MultiPass::Method::kSortedNeighborhood, 10), db->dataset,
          keys, theory);
      const double cluster = BestBusySeconds(
          MultiPass(MultiPass::Method::kClustering, 10, cluster_options),
          db->dataset, keys, theory);
      if (snm < 0 || cluster < 0) return 1;

      double records = static_cast<double>(db->dataset.size());
      table.AddRow({std::to_string(base_sizes[size_index]),
                    FormatPercent(100.0 * dup_rates[rate_index]),
                    std::to_string(db->dataset.size()), FormatDouble(snm),
                    FormatDouble(cluster)});
      xs[rate_index].push_back(records);
      ys_snm[rate_index].push_back(snm);
      ys_cluster[rate_index].push_back(cluster);
      if (records > largest_records) {
        largest_records = records;
        largest_snm = snm;
        largest_cluster = cluster;
      }
    }
  }
  table.Print();

  std::printf("\nlinearity of time vs records (R^2 per duplication rate):\n");
  for (size_t r = 0; r < dup_rates.size(); ++r) {
    double a, b;
    double r2_snm = LinearFitR2(xs[r], ys_snm[r], &a, &b);
    double r2_cluster = LinearFitR2(xs[r], ys_cluster[r], &a, &b);
    std::printf("  %2.0f%% duplication: snm R^2=%.4f, clustering R^2=%.4f\n",
                100.0 * dup_rates[r], r2_snm, r2_cluster);
  }

  // Paper's closing estimate: time for 10^9 records by linear scaling of
  // the largest measured point ("we assume the time will keep growing
  // linearly as the size of the database increases").
  const double billion = 1e9;
  double snm_days =
      billion * largest_snm / largest_records / 86400.0;
  double cluster_days =
      billion * largest_cluster / largest_records / 86400.0;
  std::printf(
      "\nextrapolation to 10^9 records (this hardware, serial):\n"
      "  sorted-neighborhood: %.2f days   (paper, 4-proc 1995 cluster: "
      "~10 days)\n"
      "  clustering method:   %.2f days   (paper: ~7 days)\n"
      "  clustering/snm ratio: %.2f       (paper: 1621/2172 = 0.75)\n",
      snm_days, cluster_days, largest_cluster / largest_snm);
  return 0;
}
