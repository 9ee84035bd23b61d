#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/histogram.h"
#include "cluster/partitioner.h"
#include "core/clustering_method.h"
#include "core/sorted_neighborhood.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"

namespace mergepurge {
namespace {

TEST(HistogramTest, BinCountMatchesDepth) {
  EXPECT_EQ(Histogram(1).num_bins(), 37u);
  EXPECT_EQ(Histogram(2).num_bins(), 37u * 37u);
  EXPECT_EQ(Histogram(3).num_bins(), 37u * 37u * 37u);
}

TEST(HistogramTest, DepthClamped) {
  EXPECT_EQ(Histogram(0).depth(), 1u);
  EXPECT_EQ(Histogram(9).depth(), 4u);
}

TEST(HistogramTest, BinMappingIsMonotoneInPrefix) {
  Histogram h(3);
  // Alphabetical prefixes map to increasing bins.
  EXPECT_LT(h.BinOf("ABC"), h.BinOf("ABD"));
  EXPECT_LT(h.BinOf("ABZ"), h.BinOf("ACA"));
  EXPECT_LT(h.BinOf("AZZ"), h.BinOf("BAA"));
  // Padding maps below 'A'; digits sort between "other" and letters,
  // matching ASCII order so key ranges stay contiguous.
  EXPECT_LT(h.BinOf("A"), h.BinOf("AA"));
  EXPECT_LT(h.BinOf("1BC"), h.BinOf("ABC"));
  EXPECT_LT(h.BinOf("1"), h.BinOf("2"));
  EXPECT_LT(h.BinOf("9ZZ"), h.BinOf("AAA"));
  // Case-insensitive.
  EXPECT_EQ(h.BinOf("abc"), h.BinOf("ABC"));
}

TEST(HistogramTest, CountsAccumulate) {
  Histogram h(2);
  h.Add("AB");
  h.Add("AB");
  h.Add("CD");
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count(h.BinOf("AB")), 2u);
  EXPECT_EQ(h.count(h.BinOf("CD")), 1u);
}

TEST(PartitionerTest, RejectsBadInput) {
  Histogram empty(2);
  EXPECT_FALSE(KeyPartitioner::FromHistogram(empty, 4).ok());
  Histogram h(2);
  h.Add("AB");
  EXPECT_FALSE(KeyPartitioner::FromHistogram(h, 0).ok());
}

TEST(PartitionerTest, UniformDataYieldsBalancedClusters) {
  Histogram h(2);
  // Uniform over 26 leading letters.
  for (char c1 = 'A'; c1 <= 'Z'; ++c1) {
    for (char c2 = 'A'; c2 <= 'Z'; ++c2) {
      std::string key{c1, c2};
      for (int k = 0; k < 3; ++k) h.Add(key);
    }
  }
  auto partitioner = KeyPartitioner::FromHistogram(h, 8);
  ASSERT_TRUE(partitioner.ok());
  // Count mass per cluster.
  std::vector<uint64_t> mass(8, 0);
  for (char c1 = 'A'; c1 <= 'Z'; ++c1) {
    for (char c2 = 'A'; c2 <= 'Z'; ++c2) {
      std::string key{c1, c2};
      mass[partitioner->ClusterOf(key)] += 3;
    }
  }
  uint64_t total = 26 * 26 * 3;
  for (uint64_t m : mass) {
    EXPECT_GT(m, total / 16);  // No cluster under half the average.
    EXPECT_LT(m, total / 4);   // No cluster over twice the average.
  }
}

TEST(PartitionerTest, SkewedDataStillCoversAllClusters) {
  Histogram h(1);
  // Heavy skew: 90% of keys start with 'S'.
  for (int i = 0; i < 900; ++i) h.Add("S");
  for (int i = 0; i < 50; ++i) h.Add("A");
  for (int i = 0; i < 50; ++i) h.Add("Z");
  auto partitioner = KeyPartitioner::FromHistogram(h, 4);
  ASSERT_TRUE(partitioner.ok());
  // The hot bin cannot be split (it is one bin), but cluster assignment
  // must remain monotone and within range.
  EXPECT_LE(partitioner->ClusterOf("A"), partitioner->ClusterOf("S"));
  EXPECT_LE(partitioner->ClusterOf("S"), partitioner->ClusterOf("Z"));
  EXPECT_LT(partitioner->ClusterOf("Z"), 4u);
}

TEST(PartitionerTest, ClustersAreContiguousKeyRanges) {
  Histogram h(2);
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    std::string key;
    key += static_cast<char>('A' + rng.NextBounded(26));
    key += static_cast<char>('A' + rng.NextBounded(26));
    h.Add(key);
  }
  auto partitioner = KeyPartitioner::FromHistogram(h, 10);
  ASSERT_TRUE(partitioner.ok());
  // Monotone in key order => contiguous ranges.
  size_t prev = 0;
  for (char c1 = 'A'; c1 <= 'Z'; ++c1) {
    for (char c2 = 'A'; c2 <= 'Z'; ++c2) {
      size_t cluster = partitioner->ClusterOf(std::string{c1, c2});
      EXPECT_GE(cluster, prev);
      prev = cluster;
    }
  }
}

TEST(BuildHistogramTest, SamplingApproximatesFullScan) {
  std::vector<std::string> keys;
  Rng gen(5);
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(std::string(1, 'A' + gen.NextBounded(26)));
  }
  Rng rng(6);
  Histogram full = BuildHistogram(keys, 1, 0, &rng);
  Histogram sampled = BuildHistogram(keys, 1, 2000, &rng);
  EXPECT_EQ(full.total(), keys.size());
  EXPECT_EQ(sampled.total(), 2000u);
  // Sampled distribution within a few percent of the true one.
  for (size_t bin = 0; bin < full.num_bins(); ++bin) {
    double p_full = static_cast<double>(full.count(bin)) / full.total();
    double p_sample =
        static_cast<double>(sampled.count(bin)) / sampled.total();
    EXPECT_NEAR(p_full, p_sample, 0.03);
  }
}

// --- Clustering method end-to-end. ---

class ClusteringMethodTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_records = 1500;
    config.duplicate_selection_rate = 0.35;
    config.max_duplicates_per_record = 5;
    config.seed = 77;
    auto db = DatabaseGenerator(config).Generate();
    ASSERT_TRUE(db.ok());
    dataset_ = std::move(db->dataset);
    truth_ = std::move(db->truth);
    ConditionEmployeeDataset(&dataset_);
  }

  Dataset dataset_;
  GroundTruth truth_;
  EmployeeTheory theory_;
};

TEST_F(ClusteringMethodTest, FindsDuplicatesWithReasonableAccuracy) {
  ClusteringOptions options;
  options.num_clusters = 32;
  options.window = 10;
  auto pass = ClusteringMethod(options).Run(dataset_, LastNameKey(),
                                            theory_);
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  AccuracyReport report =
      EvaluatePairSet(pass->pairs, dataset_.size(), truth_);
  EXPECT_GT(report.recall_percent, 35.0);
  EXPECT_LT(report.false_positive_percent, 10.0);
}

TEST_F(ClusteringMethodTest, AccuracyComparableToSnm) {
  // Paper §3.4 found SNM edging higher than the clustering method on the
  // 468k-record run; at unit-test scale the ordering fluctuates with the
  // seed, so this test only pins both methods to the same accuracy band
  // (the figure-3 bench reports the actual comparison at scale).
  ClusteringOptions options;
  options.num_clusters = 32;
  options.window = 10;
  auto cluster_pass =
      ClusteringMethod(options).Run(dataset_, LastNameKey(), theory_);
  auto snm_pass =
      SortedNeighborhood(10).Run(dataset_, LastNameKey(), theory_);
  ASSERT_TRUE(cluster_pass.ok());
  ASSERT_TRUE(snm_pass.ok());
  AccuracyReport cluster_report =
      EvaluatePairSet(cluster_pass->pairs, dataset_.size(), truth_);
  AccuracyReport snm_report =
      EvaluatePairSet(snm_pass->pairs, dataset_.size(), truth_);
  EXPECT_GT(cluster_report.recall_percent, 35.0);
  EXPECT_GT(snm_report.recall_percent, 35.0);
  EXPECT_NEAR(cluster_report.recall_percent, snm_report.recall_percent,
              15.0);
}

TEST_F(ClusteringMethodTest, FullKeyAblationStaysComparable) {
  // Sorting clusters by the full variable-length key instead of the fixed
  // cluster key changes which in-window pairs are seen; at this scale the
  // two stay within a few points of each other.
  ClusteringOptions fixed_options;
  fixed_options.num_clusters = 16;
  fixed_options.window = 10;
  ClusteringOptions full_options = fixed_options;
  full_options.sort_with_full_key = true;

  auto fixed_pass = ClusteringMethod(fixed_options)
                        .Run(dataset_, LastNameKey(), theory_);
  auto full_pass = ClusteringMethod(full_options)
                       .Run(dataset_, LastNameKey(), theory_);
  ASSERT_TRUE(fixed_pass.ok());
  ASSERT_TRUE(full_pass.ok());
  AccuracyReport fixed_report =
      EvaluatePairSet(fixed_pass->pairs, dataset_.size(), truth_);
  AccuracyReport full_report =
      EvaluatePairSet(full_pass->pairs, dataset_.size(), truth_);
  EXPECT_NEAR(full_report.recall_percent, fixed_report.recall_percent,
              10.0);
}

TEST_F(ClusteringMethodTest, ClusterOrderPartitionsAndSortsEveryRecord) {
  ClusteringOptions options;
  options.num_clusters = 16;
  PassResult timings;
  auto clustered = ClusterOrder(dataset_, LastNameKey(), options, &timings);
  ASSERT_TRUE(clustered.ok()) << clustered.status().ToString();
  const std::vector<size_t>& bounds = clustered->bounds;
  ASSERT_EQ(bounds.size(), 17u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), dataset_.size());

  // Every record appears once, and each cluster is sorted by the fixed
  // cluster key (ties by tuple id).
  std::vector<TupleId> sorted = clustered->order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t t = 0; t < sorted.size(); ++t) EXPECT_EQ(sorted[t], t);
  const std::vector<std::string> keys =
      KeyBuilder(LastNameKey().FixedWidth(options.fixed_key_prefix))
          .BuildKeys(dataset_);
  size_t largest = 0;
  for (size_t c = 0; c + 1 < bounds.size(); ++c) {
    ASSERT_LE(bounds[c], bounds[c + 1]);
    largest = std::max(largest, bounds[c + 1] - bounds[c]);
    for (size_t i = bounds[c] + 1; i < bounds[c + 1]; ++i) {
      const TupleId a = clustered->order[i - 1];
      const TupleId b = clustered->order[i];
      EXPECT_TRUE(keys[a] < keys[b] || (keys[a] == keys[b] && a < b));
    }
  }
  EXPECT_LT(largest, dataset_.size());
}

// ClusterOrder equals the reference it replaced: a counting sort by
// cluster, tids ascending, then std::sort of each cluster by (key, tid).
// The dataset is above the pool's grain, so keys, cluster lookups and
// cluster sorts run on worker threads.
TEST(ClusterOrderTest, EqualsCountingSortThenPerClusterSort) {
  GeneratorConfig config;
  config.num_records = 5000;
  config.seed = 78;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());
  ConditionEmployeeDataset(&db->dataset);
  const Dataset& dataset = db->dataset;
  ASSERT_GT(dataset.size(), 8192u);
  for (bool full_key : {false, true}) {
    ClusteringOptions options;
    options.sort_with_full_key = full_key;
    PassResult timings;
    auto clustered = ClusterOrder(dataset, LastNameKey(), options, &timings);
    ASSERT_TRUE(clustered.ok()) << clustered.status().ToString();

    const std::vector<std::string> fixed =
        KeyBuilder(LastNameKey().FixedWidth(options.fixed_key_prefix))
            .BuildKeys(dataset);
    auto partitioner = KeyPartitioner::FromHistogram(
        BuildHistogram(fixed, 3, 0, nullptr), options.num_clusters);
    ASSERT_TRUE(partitioner.ok());
    std::vector<size_t> bounds(partitioner->num_clusters() + 1, 0);
    for (const std::string& key : fixed) {
      ++bounds[partitioner->ClusterOf(key) + 1];
    }
    for (size_t c = 1; c < bounds.size(); ++c) bounds[c] += bounds[c - 1];
    std::vector<size_t> next(bounds.begin(), bounds.end() - 1);
    std::vector<TupleId> order(dataset.size());
    for (size_t t = 0; t < dataset.size(); ++t) {
      order[next[partitioner->ClusterOf(fixed[t])]++] =
          static_cast<TupleId>(t);
    }
    const std::vector<std::string> sort_keys =
        full_key ? KeyBuilder(LastNameKey()).BuildKeys(dataset) : fixed;
    for (size_t c = 0; c + 1 < bounds.size(); ++c) {
      std::sort(order.begin() + static_cast<long>(bounds[c]),
                order.begin() + static_cast<long>(bounds[c + 1]),
                [&sort_keys](TupleId a, TupleId b) {
                  const int cmp = sort_keys[a].compare(sort_keys[b]);
                  return cmp != 0 ? cmp < 0 : a < b;
                });
    }
    EXPECT_EQ(clustered->bounds, bounds) << "full key " << full_key;
    EXPECT_EQ(clustered->order, order) << "full key " << full_key;
  }
}

TEST_F(ClusteringMethodTest, RejectsBadOptions) {
  ClusteringOptions options;
  options.window = 1;
  EXPECT_FALSE(
      ClusteringMethod(options).Run(dataset_, LastNameKey(), theory_).ok());
  options.window = 10;
  options.num_clusters = 0;
  EXPECT_FALSE(
      ClusteringMethod(options).Run(dataset_, LastNameKey(), theory_).ok());
}

TEST_F(ClusteringMethodTest, EmptyDatasetYieldsEmptyResult) {
  Dataset empty(employee::MakeSchema());
  ClusteringOptions options;
  auto pass = ClusteringMethod(options).Run(empty, LastNameKey(), theory_);
  ASSERT_TRUE(pass.ok());
  EXPECT_EQ(pass->pairs.size(), 0u);
}

TEST_F(ClusteringMethodTest, OneClusterEqualsSnmWithFixedKey) {
  // With C=1 every record lands in the same cluster; sorting by the fixed
  // key makes the pass equivalent to SNM run on the fixed-width key spec.
  ClusteringOptions options;
  options.num_clusters = 1;
  options.window = 8;
  auto cluster_pass =
      ClusteringMethod(options).Run(dataset_, LastNameKey(), theory_);
  ASSERT_TRUE(cluster_pass.ok());

  KeySpec fixed = LastNameKey().FixedWidth(options.fixed_key_prefix);
  auto snm_pass = SortedNeighborhood(8).Run(dataset_, fixed, theory_);
  ASSERT_TRUE(snm_pass.ok());

  EXPECT_EQ(cluster_pass->pairs.size(), snm_pass->pairs.size());
  snm_pass->pairs.ForEach([&](TupleId a, TupleId b) {
    EXPECT_TRUE(cluster_pass->pairs.Contains(a, b));
  });
}

}  // namespace
}  // namespace mergepurge
