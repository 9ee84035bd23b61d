// Parallel building blocks: the range-partitioned order builder,
// fragmentation coverage properties, LPT load balancing and the cost
// models. That the fragment scan reproduces the serial passes of both
// methods exactly is checked in contract_test.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

#include "core/clustering_method.h"
#include "core/key_order.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "parallel/cost_model.h"
#include "parallel/fragment_scan.h"
#include "parallel/load_balance.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"

namespace mergepurge {
namespace {

// --- The order builder. ---

// The reference: a serial std::sort by (key, tid).
std::vector<TupleId> SerialKeyOrder(const std::vector<std::string>& keys) {
  std::vector<TupleId> order(keys.size());
  for (size_t t = 0; t < order.size(); ++t) order[t] = static_cast<TupleId>(t);
  std::sort(order.begin(), order.end(), [&keys](TupleId a, TupleId b) {
    const int cmp = keys[a].compare(keys[b]);
    return cmp != 0 ? cmp < 0 : a < b;
  });
  return order;
}

// Keys over bytes that a signed-char or case-folding comparison would
// misorder: NUL, space, both cases, 0x7f, 0x80 and 0xff, and lengths
// around the 8-byte sort prefix.
std::vector<std::string> ByteKeys(size_t n, uint64_t seed) {
  static constexpr char kBytes[] = {'\0', ' ', 'A', 'a', 'z', '\x7f',
                                    '\x80', '\xff'};
  Rng rng(seed);
  std::vector<std::string> keys(n);
  for (std::string& key : keys) {
    const size_t length = rng.NextBounded(12);
    for (size_t i = 0; i < length; ++i) {
      key.push_back(kBytes[rng.NextBounded(sizeof(kBytes))]);
    }
  }
  return keys;
}

void ExpectSerialOrder(const std::vector<std::string>& keys,
                       size_t num_buckets, size_t workers) {
  const KeyOrder sorted = OrderByKeyRanges(keys, num_buckets, workers);
  EXPECT_EQ(sorted.order, SerialKeyOrder(keys))
      << keys.size() << " keys, " << num_buckets << " buckets, " << workers
      << " workers";
  ASSERT_EQ(sorted.bounds.size(), num_buckets + 1);
  EXPECT_EQ(sorted.bounds.front(), 0u);
  EXPECT_EQ(sorted.bounds.back(), keys.size());
}

TEST(OrderBuilderTest, EqualsSerialSortForEveryBucketAndWorkerCount) {
  // 20,000 keys are above the grain, so four workers run on the pool.
  for (size_t n : {size_t{1000}, size_t{20000}}) {
    const std::vector<std::string> keys = ByteKeys(n, n);
    for (size_t buckets : {size_t{1}, size_t{3}, size_t{16}}) {
      for (size_t workers : {size_t{1}, size_t{4}}) {
        ExpectSerialOrder(keys, buckets, workers);
      }
    }
  }
}

TEST(OrderBuilderTest, EqualsSerialSortOnDegenerateKeys) {
  ExpectSerialOrder(std::vector<std::string>(20000, "SMITH"), 16, 4);
  ExpectSerialOrder(std::vector<std::string>(20000, ""), 16, 4);
  std::vector<std::string> some_empty = ByteKeys(20000, 3);
  for (size_t t = 0; t < some_empty.size(); t += 3) some_empty[t].clear();
  ExpectSerialOrder(some_empty, 16, 4);
  ExpectSerialOrder(ByteKeys(5, 4), 16, 4);  // n < P.
  ExpectSerialOrder({}, 16, 4);              // n = 0.
}

TEST(OrderBuilderTest, BucketsAreContiguousKeyRangesOfNearEqualSize) {
  const std::vector<std::string> keys = ByteKeys(20000, 5);
  const KeyOrder sorted = OrderByKeyRanges(keys, 16, 4);
  for (size_t b = 0; b + 1 < sorted.bounds.size(); ++b) {
    const size_t size = sorted.bounds[b + 1] - sorted.bounds[b];
    EXPECT_GT(size, 20000u / 16 / 2) << "bucket " << b;
    EXPECT_LT(size, 20000u / 16 * 2) << "bucket " << b;
  }
}

TEST(OrderBuilderTest, OrderByBucketsKeepsBucketsAndSortsInside) {
  const std::vector<std::string> keys = ByteKeys(20000, 6);
  std::vector<uint32_t> bucket_of(keys.size());
  for (size_t t = 0; t < keys.size(); ++t) bucket_of[t] = (t * 7) % 5;
  const KeyOrder sorted = OrderByBuckets(keys, bucket_of, 5, 4);
  ASSERT_EQ(sorted.bounds.size(), 6u);
  for (size_t b = 0; b < 5; ++b) {
    std::vector<TupleId> members;
    for (size_t t = 0; t < keys.size(); ++t) {
      if (bucket_of[t] == b) members.push_back(static_cast<TupleId>(t));
    }
    std::sort(members.begin(), members.end(), [&keys](TupleId x, TupleId y) {
      const int cmp = keys[x].compare(keys[y]);
      return cmp != 0 ? cmp < 0 : x < y;
    });
    const std::vector<TupleId> got(
        sorted.order.begin() + static_cast<long>(sorted.bounds[b]),
        sorted.order.begin() + static_cast<long>(sorted.bounds[b + 1]));
    EXPECT_EQ(got, members) << "bucket " << b;
  }
}

// --- Fragmentation. ---

TEST(FragmentsTest, CoverAllPositionsOnce) {
  auto fragments = MakeOverlappingFragments(100, 4, 10);
  ASSERT_EQ(fragments.size(), 4u);
  // Fresh (non-band) regions tile [0, 100).
  EXPECT_EQ(fragments[0].begin, 0u);
  EXPECT_EQ(fragments.back().end, 100u);
  for (size_t i = 1; i < fragments.size(); ++i) {
    // Band: fragment i starts w-1 before the previous fragment's end.
    EXPECT_EQ(fragments[i].begin + 9, fragments[i - 1].end);
  }
}

TEST(FragmentsTest, SmallInputsClamp) {
  EXPECT_TRUE(MakeOverlappingFragments(0, 4, 10).empty());
  auto fragments = MakeOverlappingFragments(3, 8, 10);
  EXPECT_LE(fragments.size(), 3u);
  EXPECT_EQ(fragments[0].begin, 0u);
}

TEST(FragmentsTest, WindowLargerThanFragment) {
  auto fragments = MakeOverlappingFragments(10, 5, 8);
  // Bands clamp at zero rather than underflowing.
  for (const Fragment& f : fragments) {
    EXPECT_LE(f.begin, f.end);
    EXPECT_LE(f.end, 10u);
  }
  EXPECT_EQ(fragments.back().end, 10u);
}

// --- LPT. ---

TEST(LptTest, SingleProcessorTakesAll) {
  auto result = LptAssign({5, 3, 8}, 1);
  EXPECT_EQ(result.loads[0], 16u);
  EXPECT_DOUBLE_EQ(result.imbalance, 1.0);
}

TEST(LptTest, BalancesEqualJobs) {
  std::vector<uint64_t> jobs(12, 10);
  auto result = LptAssign(jobs, 4);
  for (uint64_t load : result.loads) EXPECT_EQ(load, 30u);
  EXPECT_DOUBLE_EQ(result.imbalance, 1.0);
}

TEST(LptTest, LargeJobDominates) {
  auto result = LptAssign({100, 1, 1, 1}, 2);
  // LPT puts the 100 alone on one machine, the three 1s on the other.
  EXPECT_EQ(std::max(result.loads[0], result.loads[1]), 100u);
  EXPECT_EQ(std::min(result.loads[0], result.loads[1]), 3u);
}

TEST(LptTest, MakespanWithinGrahamBound) {
  // LPT is within 4/3 - 1/(3m) of optimal; against the trivial lower
  // bound max(total/m, max_job) this must hold for random inputs.
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint64_t> jobs;
    size_t count = 5 + rng.NextBounded(40);
    for (size_t i = 0; i < count; ++i) jobs.push_back(1 + rng.NextBounded(1000));
    size_t m = 1 + rng.NextBounded(8);
    auto result = LptAssign(jobs, m);
    uint64_t total = 0, max_job = 0;
    for (uint64_t j : jobs) {
      total += j;
      max_job = std::max(max_job, j);
    }
    double lower_bound = std::max(
        static_cast<double>(total) / static_cast<double>(m),
        static_cast<double>(max_job));
    uint64_t makespan =
        *std::max_element(result.loads.begin(), result.loads.end());
    EXPECT_LE(static_cast<double>(makespan),
              lower_bound * (4.0 / 3.0) + 1e-9);
  }
}

TEST(LptTest, AssignmentIndicesValid) {
  auto result = LptAssign({1, 2, 3, 4, 5}, 3);
  ASSERT_EQ(result.assignment.size(), 5u);
  for (uint32_t p : result.assignment) EXPECT_LT(p, 3u);
}

TEST(LptTest, BalancesClusterOrderSizes) {
  // The cost model's load-balance input: LPT over the clustering
  // method's cluster sizes (paper §4.2, 10 clusters per processor).
  GeneratorConfig config;
  config.num_records = 800;
  config.seed = 9;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());
  ConditionEmployeeDataset(&db->dataset);

  ClusteringOptions options;
  options.num_clusters = 10 * 4;
  PassResult timings;
  auto clustered = ClusterOrder(db->dataset, LastNameKey(), options, &timings);
  ASSERT_TRUE(clustered.ok()) << clustered.status().ToString();
  const LoadBalanceResult balance = LptAssign(clustered->Sizes(), 4);
  EXPECT_EQ(balance.loads.size(), 4u);
  EXPECT_GE(balance.imbalance, 1.0);
  EXPECT_LT(balance.imbalance, 2.0);
}

// --- Cost models. ---

TEST(SerialCostModelTest, FitRecoversConstants) {
  PassResult pass;
  pass.create_keys_seconds = 0.0;
  // Fabricate a pass consistent with c=2e-6, alpha=5.
  size_t n = 100000;
  double c = 2e-6;
  pass.sort_seconds = c * n * std::log2(static_cast<double>(n));
  pass.comparisons = 9 * n;  // w=10.
  pass.scan_seconds = 5.0 * c * pass.comparisons;
  SerialCostModel model = SerialCostModel::Fit(pass, n);
  EXPECT_NEAR(model.c, c, c * 0.01);
  EXPECT_NEAR(model.alpha, 5.0, 0.05);
}

TEST(SerialCostModelTest, MultiPassCheaperThanHugeSinglePass) {
  SerialCostModel model;
  model.c = 1.2e-5;
  model.alpha = 6.0;
  size_t n = 13751;  // The paper's memory-resident database.
  double crossover = model.CrossoverWindow(n, 10, 3);
  // Paper: "the multi-pass approach dominates ... when W > 41" (with
  // closure terms; without them the floor is (r-1)/alpha*logN + rw ~ 34.6).
  EXPECT_GT(crossover, 30.0);
  EXPECT_LT(crossover, 50.0);
  EXPECT_GT(model.SinglePassSeconds(n, static_cast<size_t>(crossover) + 20),
            model.MultiPassSeconds(n, 10, 3));
}

TEST(SimulatedClusterTest, MoreProcessorsNeverSlower) {
  ClusterModelParams params;
  SimulatedCluster cluster(params);
  double prev_snm = 1e18, prev_cl = 1e18;
  for (size_t p = 1; p <= 8; ++p) {
    double snm = cluster.SnmPassSeconds(1000000, 10, p);
    double cl = cluster.ClusteringPassSeconds(1000000, 10, p, 100);
    EXPECT_LE(snm, prev_snm * 1.02);
    EXPECT_LE(cl, prev_cl * 1.02);
    prev_snm = snm;
    prev_cl = cl;
  }
}

TEST(SimulatedClusterTest, SublinearSpeedupFromSerialTerms) {
  ClusterModelParams params;
  SimulatedCluster cluster(params);
  double t1 = cluster.SnmPassSeconds(1000000, 10, 1);
  double t8 = cluster.SnmPassSeconds(1000000, 10, 8);
  double speedup = t1 / t8;
  EXPECT_GT(speedup, 1.5);   // Parallelism helps...
  EXPECT_LT(speedup, 8.0);   // ...but the broadcast term keeps it sublinear.
}

TEST(SimulatedClusterTest, CalibrateLikePaperPreservesShape) {
  // Whatever the fitted constants are (1995 or modern hardware), the
  // paper-ratio calibration must yield: meaningful but sublinear speedup,
  // and clustering <= SNM.
  for (double c : {1.2e-5, 2.7e-8}) {
    for (double alpha : {6.0, 130.0}) {
      SerialCostModel fitted;
      fitted.c = c;
      fitted.alpha = alpha;
      ClusterModelParams params =
          CalibrateLikePaper(fitted, 1000000, 10, 1.05);
      SimulatedCluster cluster(params);
      double t1 = cluster.SnmPassSeconds(1000000, 10, 1);
      double t8 = cluster.SnmPassSeconds(1000000, 10, 8);
      double speedup = t1 / t8;
      EXPECT_GT(speedup, 2.5) << "c=" << c << " alpha=" << alpha;
      EXPECT_LT(speedup, 7.5) << "c=" << c << " alpha=" << alpha;
      EXPECT_LE(cluster.ClusteringPassSeconds(1000000, 10, 4, 100),
                cluster.SnmPassSeconds(1000000, 10, 4) * 1.10);
    }
  }
}

TEST(SimulatedClusterTest, ClusteringFasterThanSnm) {
  // Figure 6: "the clustering method is, as expected, a faster parallel
  // process than the sorted-neighborhood method."
  ClusterModelParams params;
  SimulatedCluster cluster(params);
  for (size_t p = 1; p <= 8; ++p) {
    EXPECT_LT(cluster.ClusteringPassSeconds(1000000, 10, p, 100),
              cluster.SnmPassSeconds(1000000, 10, p) * 1.05);
  }
}

}  // namespace
}  // namespace mergepurge
