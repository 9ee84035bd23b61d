// Analytic / simulated timing models.
//
// Two models live here:
//
// 1. SerialCostModel — the paper's §3.5 analysis:
//      T_mp = c r N log N + alpha c r w N + T_cl
//      T_sp = c N log N + alpha c W N + T_cl
//    with the crossover window W above which the multi-pass approach
//    dominates a single pass:
//      W > (r-1)/alpha * log N + r w
//          + (r-1)/(alpha c N) T_cl_sp + 1/(alpha c N) T_cl_mp
//    The constants c (sort comparison cost) and alpha (window comparison /
//    sort comparison cost ratio) are fitted from a measured serial pass.
//
// 2. SimulatedCluster — a discrete shared-nothing cluster model for the
//    parallel experiments (paper §4, figure 6). One shared-memory host
//    cannot measure the paper's 8-node cluster, so the model is
//    calibrated from measured serial phase costs and composes them the way
//    the paper's HP-cluster implementation does: a serial coordinator
//    broadcast (with the block-cyclic deal of §4.1), parallel local sorts,
//    a P-way merge at the coordinator, LPT-balanced clusters, and parallel
//    window scans. This reproduces figure 6's sublinear speedup shape.
//    Functional correctness of the parallel algorithms is established
//    separately by the thread-based fragment scan (fragment_scan.h), whose
//    passes of either method equal the serial runs exactly.

#ifndef MERGEPURGE_PARALLEL_COST_MODEL_H_
#define MERGEPURGE_PARALLEL_COST_MODEL_H_

#include <cstddef>

#include "core/sorted_neighborhood.h"

namespace mergepurge {

struct SerialCostModel {
  double c = 1.2e-5;    // Seconds per sort comparison (paper: ~1.2e-5).
  double alpha = 6.0;   // Window-scan comparison cost / sort cost (>= 1).
  double closure_sp_seconds = 0.0;  // T_cl of a single pass.
  double closure_mp_seconds = 0.0;  // T_cl of the multi-pass closure.

  // Fits c and alpha from a measured pass: c from sort time / (N log N),
  // alpha from scan-time-per-comparison / c.
  static SerialCostModel Fit(const PassResult& pass, size_t n);

  // T_sp for window W over N records.
  double SinglePassSeconds(size_t n, size_t window) const;

  // T_mp for r passes of window w over N records.
  double MultiPassSeconds(size_t n, size_t window, size_t passes) const;

  // The crossover W: the single-pass window above which the multi-pass
  // approach (r passes, window w) is faster for the same budget.
  double CrossoverWindow(size_t n, size_t w, size_t passes) const;
};

struct ClusterModelParams {
  // Coordinator ingest + send cost per record (the serial broadcast term
  // that makes figure 6's speedup sublinear: "The obvious overhead is paid
  // in the process of reading and broadcasting of data to all processors").
  // The default reflects a 1995-era coordinator + FDDI network relative to
  // the compute constants below.
  double io_seconds_per_record = 1.0e-4;

  // Coordinator P-way merge cost per record (sorted-neighborhood only).
  double merge_seconds_per_record = 2.0e-6;

  // Per-record key extraction cost.
  double key_seconds_per_record = 1.0e-6;

  // Fitted sort comparison cost (c) and scan/sort ratio (alpha).
  double c = 1.2e-5;
  double alpha = 6.0;

  // Observed LPT imbalance factor for the clustering method (max load /
  // average load; 1.0 = perfect).
  double imbalance = 1.05;
};

// Builds cluster-model parameters from a fitted serial model, scaling the
// coordinator I/O and merge constants so their share of per-record work
// matches the paper's HP-cluster setting (~9.3% broadcast, ~0.2% merge of
// the per-record serial work at w=10, the ratio implied by figure 6).
// This keeps the figure-6 *shape* — sublinear speedup with the broadcast
// as the serial bottleneck — independent of how much faster the host CPU
// is than a 1995 workstation.
ClusterModelParams CalibrateLikePaper(const SerialCostModel& fitted,
                                      size_t n, size_t window,
                                      double imbalance);

class SimulatedCluster {
 public:
  explicit SimulatedCluster(ClusterModelParams params) : params_(params) {}

  const ClusterModelParams& params() const { return params_; }

  // Modeled wall time of one parallel sorted-neighborhood pass on
  // `processors` machines (paper figure 6(a) series).
  double SnmPassSeconds(size_t n, size_t window, size_t processors) const;

  // Modeled wall time of one parallel clustering pass with
  // clusters_per_processor clusters per machine (figure 6(b) series).
  double ClusteringPassSeconds(size_t n, size_t window, size_t processors,
                               size_t clusters_per_processor) const;

  // Multi-pass estimate: "the maximum time taken by any independent run
  // plus the time to compute the closure" (§4.1) — the r runs execute
  // concurrently on r*P processors.
  double MultiPassSeconds(double slowest_pass_seconds,
                          double closure_seconds) const;

 private:
  ClusterModelParams params_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_PARALLEL_COST_MODEL_H_
