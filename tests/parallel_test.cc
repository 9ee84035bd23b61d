// Parallel implementations: fragmentation coverage properties, LPT load
// balancing, and the key correctness property — the parallel executors
// produce EXACTLY the serial pair sets (the replicated bands make the
// fragmentation invisible, paper figure 5).

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

#include "core/clustering_method.h"
#include "core/sorted_neighborhood.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "parallel/coordinator.h"
#include "parallel/cost_model.h"
#include "parallel/load_balance.h"
#include "parallel/parallel_clustering.h"
#include "parallel/parallel_snm.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"

namespace mergepurge {
namespace {

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

TEST(BlockCyclicTest, BlocksTileWithBands) {
  auto per_site = MakeBlockCyclicFragments(100, 3, 20, 5);
  ASSERT_EQ(per_site.size(), 3u);
  // Collect all blocks, verify stride m-(w-1)=16 and full coverage.
  std::vector<Fragment> blocks;
  for (const auto& site_blocks : per_site) {
    blocks.insert(blocks.end(), site_blocks.begin(), site_blocks.end());
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const Fragment& a, const Fragment& b) {
              return a.begin < b.begin;
            });
  EXPECT_EQ(blocks.front().begin, 0u);
  EXPECT_EQ(blocks.back().end, 100u);
  for (size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i].begin, blocks[i - 1].begin + 16);
    // Overlap of w-1 = 4 positions.
    EXPECT_EQ(blocks[i - 1].end - blocks[i].begin, 4u);
  }
}

TEST(BlockCyclicTest, InputSmallerThanWindow) {
  // n < w: everything fits in one block; no bands are possible.
  auto per_site = MakeBlockCyclicFragments(5, 3, 20, 10);
  size_t blocks = 0;
  size_t covered_end = 0;
  for (const auto& site : per_site) {
    for (const Fragment& block : site) {
      ++blocks;
      EXPECT_EQ(block.begin, 0u);
      covered_end = std::max(covered_end, block.end);
    }
  }
  EXPECT_EQ(blocks, 1u);
  EXPECT_EQ(covered_end, 5u);
}

TEST(BlockCyclicTest, BlockSizeBelowClampIsRaised) {
  // m below 2*(w-1) would drop boundary pairs; the coordinator raises it
  // to the clamp, so every stride is m_eff - (w-1) >= w-1.
  auto per_site = MakeBlockCyclicFragments(200, 3, 2, 8);
  std::vector<Fragment> blocks;
  for (const auto& site : per_site) {
    blocks.insert(blocks.end(), site.begin(), site.end());
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const Fragment& a, const Fragment& b) {
              return a.begin < b.begin;
            });
  ASSERT_FALSE(blocks.empty());
  EXPECT_EQ(blocks.front().begin, 0u);
  EXPECT_EQ(blocks.back().end, 200u);
  for (size_t i = 1; i < blocks.size(); ++i) {
    // Consecutive blocks overlap by exactly w-1 = 7 positions.
    EXPECT_EQ(blocks[i - 1].end - blocks[i].begin, 7u);
    EXPECT_GE(blocks[i - 1].size(), 14u);  // Clamped to 2*(w-1).
  }
}

TEST(BlockCyclicTest, MoreProcessorsThanRecords) {
  // p > n: extra sites simply receive no blocks; coverage is unaffected.
  auto per_site = MakeBlockCyclicFragments(6, 16, 20, 3);
  ASSERT_EQ(per_site.size(), 16u);
  size_t blocks = 0;
  size_t covered_end = 0;
  for (const auto& site : per_site) {
    for (const Fragment& block : site) {
      ++blocks;
      covered_end = std::max(covered_end, block.end);
      EXPECT_LE(block.end, 6u);
    }
  }
  EXPECT_GE(blocks, 1u);
  EXPECT_EQ(covered_end, 6u);
}

TEST(BlockCyclicTest, ZeroRecordsYieldsNoBlocks) {
  auto per_site = MakeBlockCyclicFragments(0, 4, 20, 5);
  for (const auto& site : per_site) EXPECT_TRUE(site.empty());
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

// --- Parallel == serial equivalence. ---

class ParallelEquivalenceTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_records = 1200;
    config.duplicate_selection_rate = 0.5;
    config.max_duplicates_per_record = 4;
    config.seed = 2024;
    auto db = DatabaseGenerator(config).Generate();
    ASSERT_TRUE(db.ok());
    dataset_ = std::move(db->dataset);
    ConditionEmployeeDataset(&dataset_);
  }

  Dataset dataset_;
  const TheoryFactory factory_ = EmployeeTheory::Factory();
};

TEST_P(ParallelEquivalenceTest, SnmMatchesSerialExactly) {
  const size_t processors = GetParam();
  EmployeeTheory serial_theory;
  auto serial =
      SortedNeighborhood(10).Run(dataset_, LastNameKey(), serial_theory);
  ASSERT_TRUE(serial.ok());

  ParallelSnm parallel(processors, 10);
  auto result = parallel.Run(dataset_, LastNameKey(), factory_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->pairs.size(), serial->pairs.size());
  serial->pairs.ForEach([&](TupleId a, TupleId b) {
    EXPECT_TRUE(result->pairs.Contains(a, b));
  });
  // The bands are context only: no boundary pair is compared twice.
  EXPECT_EQ(result->comparisons, serial->comparisons);
  EXPECT_EQ(result->matches, serial->matches);
}

TEST_P(ParallelEquivalenceTest, BlockCyclicSnmMatchesSerialExactly) {
  const size_t processors = GetParam();
  EmployeeTheory serial_theory;
  auto serial =
      SortedNeighborhood(10).Run(dataset_, LastNameKey(), serial_theory);
  ASSERT_TRUE(serial.ok());

  // Block-cyclic coordinator deal with small memory blocks.
  ParallelSnm parallel(processors, 10, /*block_records=*/64);
  auto result = parallel.Run(dataset_, LastNameKey(), factory_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->pairs.size(), serial->pairs.size());
  serial->pairs.ForEach([&](TupleId a, TupleId b) {
    EXPECT_TRUE(result->pairs.Contains(a, b));
  });
  // The bands are context only: no boundary pair is compared twice.
  EXPECT_EQ(result->comparisons, serial->comparisons);
  EXPECT_EQ(result->matches, serial->matches);
}

TEST(BlockCyclicTest, TinyBlocksClampedForCoverage) {
  // Blocks smaller than 2*(w-1) would lose boundary pairs; the coordinator
  // clamps them.
  auto per_site = MakeBlockCyclicFragments(100, 2, 4, 10);
  for (const auto& site : per_site) {
    for (const Fragment& block : site) {
      EXPECT_GE(block.size(), 9u);  // >= 2*(w-1), or the tail remainder.
    }
  }
}

TEST_P(ParallelEquivalenceTest, ClusteringMatchesSerialPairSet) {
  const size_t processors = GetParam();
  // Serial clustering with the same TOTAL cluster count as the parallel
  // run (C per processor * P).
  ClusteringOptions serial_options;
  serial_options.num_clusters = 8 * processors;
  serial_options.window = 10;
  EmployeeTheory serial_theory;
  auto serial = ClusteringMethod(serial_options)
                    .Run(dataset_, LastNameKey(), serial_theory);
  ASSERT_TRUE(serial.ok());

  ClusteringOptions parallel_options;
  parallel_options.num_clusters = 8;  // Per processor.
  parallel_options.window = 10;
  ParallelClustering parallel(processors, parallel_options);
  auto result = parallel.Run(dataset_, LastNameKey(), factory_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->pairs.size(), serial->pairs.size());
  serial->pairs.ForEach([&](TupleId a, TupleId b) {
    EXPECT_TRUE(result->pairs.Contains(a, b));
  });
}

INSTANTIATE_TEST_SUITE_P(Processors, ParallelEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 7));

TEST(ParallelSnmTest, RejectsTinyWindow) {
  Dataset d(employee::MakeSchema());
  ParallelSnm parallel(2, 1);
  auto result = parallel.Run(d, LastNameKey(), [] {
    return std::make_unique<EmployeeTheory>();
  });
  EXPECT_FALSE(result.ok());
}

TEST(ParallelClusteringTest, ReportsBalance) {
  GeneratorConfig config;
  config.num_records = 800;
  config.seed = 9;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());
  ConditionEmployeeDataset(&db->dataset);

  ClusteringOptions options;
  options.num_clusters = 10;
  ParallelClustering parallel(4, options);
  auto result = parallel.Run(db->dataset, LastNameKey(), [] {
    return std::make_unique<EmployeeTheory>();
  });
  ASSERT_TRUE(result.ok());
  const LoadBalanceResult& balance = parallel.last_balance();
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
