// Multi-pass + transitive closure + MergePurgeEngine end-to-end tests,
// including the paper's headline property: multi-pass with a small window
// beats every constituent single pass.

#include <memory>
#include <new>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/merge_purge.h"
#include "core/multipass.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"

#include "test_support.h"

namespace mergepurge {
namespace {

TEST(TransitiveClosureTest, ClosesChains) {
  const PairSet pairs(
      std::vector<uint64_t>{PackMatch(0, 1), PackMatch(1, 2), PackMatch(4, 5)});
  auto labels = TransitiveClosure({&pairs}, 6);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[4], labels[5]);
  EXPECT_NE(labels[0], labels[4]);
  EXPECT_NE(labels[3], labels[0]);
}

TEST(TransitiveClosureTest, UnionAcrossPassResults) {
  const PairSet a(std::vector<uint64_t>{PackMatch(0, 1)});
  const PairSet b(std::vector<uint64_t>{PackMatch(1, 2)});
  auto labels = TransitiveClosure({&a, &b}, 4);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(TransitiveClosureTest, IdempotentOnClosedSets) {
  const PairSet pairs(
      std::vector<uint64_t>{PackMatch(0, 1), PackMatch(0, 2), PackMatch(1, 2)});
  auto once = TransitiveClosure({&pairs}, 3);
  // Re-running with pairs implied by the closure changes nothing.
  std::vector<uint64_t> closed;
  for (TupleId i = 0; i < 3; ++i) {
    for (TupleId j = i + 1; j < 3; ++j) {
      if (once[i] == once[j]) closed.push_back(PackMatch(i, j));
    }
  }
  const PairSet closed_pairs(std::move(closed));
  auto twice = TransitiveClosure({&closed_pairs}, 3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(once[i] == once[j], twice[i] == twice[j]);
    }
  }
}

class MultiPassTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_records = 2500;
    config.duplicate_selection_rate = 0.5;
    config.max_duplicates_per_record = 5;
    config.seed = 1234;
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

TEST_F(MultiPassTest, RequiresKeys) {
  MultiPass mp(MultiPass::Method::kSortedNeighborhood, 10);
  EXPECT_FALSE(mp.Run(dataset_, {}, theory_).ok());
}

TEST_F(MultiPassTest, MultipassBeatsEverySinglePass) {
  MultiPass mp(MultiPass::Method::kSortedNeighborhood, 10);
  auto result = mp.Run(dataset_, StandardThreeKeys(), theory_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->passes.size(), 3u);

  AccuracyReport multipass = EvaluateComponents(result->component_of, truth_);
  for (const PassResult& pass : result->passes) {
    AccuracyReport single =
        EvaluatePairSet(pass.pairs, dataset_.size(), truth_);
    EXPECT_GE(multipass.recall_percent, single.recall_percent)
        << "pass " << pass.key_name;
  }
  // The paper reports ~90% for the closure over three keys; allow a wide
  // margin but require clearly useful accuracy.
  EXPECT_GT(multipass.recall_percent, 75.0);
  EXPECT_LT(multipass.false_positive_percent, 10.0);
}

TEST_F(MultiPassTest, UnionPairCountEqualsBruteForceUnion) {
  MultiPass mp(MultiPass::Method::kSortedNeighborhood, 10);
  auto result = mp.Run(dataset_, StandardThreeKeys(), theory_);
  ASSERT_TRUE(result.ok());
  std::set<std::pair<TupleId, TupleId>> all;
  size_t summed = 0;
  for (const PassResult& pass : result->passes) {
    pass.pairs.ForEach([&all](TupleId a, TupleId b) { all.emplace(a, b); });
    summed += pass.pairs.size();
  }
  EXPECT_EQ(result->union_pair_count, all.size());
  EXPECT_LT(result->union_pair_count, summed);  // The passes overlap.
}

TEST_F(MultiPassTest, ClusteringMethodVariantRuns) {
  ClusteringOptions options;
  options.num_clusters = 16;
  MultiPass mp(MultiPass::Method::kClustering, 10, options);
  auto result = mp.Run(dataset_, StandardThreeKeys(), theory_);
  ASSERT_TRUE(result.ok());
  AccuracyReport report = EvaluateComponents(result->component_of, truth_);
  EXPECT_GT(report.recall_percent, 60.0);
}

// --- MergePurgeEngine facade. ---

TEST_F(MultiPassTest, EngineEndToEnd) {
  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  options.window = 10;
  MergePurgeEngine engine(options);

  // Run on the RAW (unconditioned) data; the engine conditions internally.
  GeneratorConfig config;
  config.num_records = 1000;
  config.duplicate_selection_rate = 0.5;
  config.seed = 555;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());

  EmployeeTheory theory;
  auto result = engine.Run(db->dataset, theory);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->component_of.size(), db->dataset.size());
  EXPECT_GT(result->num_entities, 0u);
  EXPECT_LT(result->num_entities, db->dataset.size());

  AccuracyReport report = EvaluateComponents(result->component_of,
                                             db->truth);
  EXPECT_GT(report.recall_percent, 70.0);
}

TEST_F(MultiPassTest, EngineValidatesOptions) {
  EmployeeTheory theory;
  MergePurgeOptions no_keys;
  EXPECT_FALSE(MergePurgeEngine(no_keys).Run(dataset_, theory).ok());

  MergePurgeOptions tiny_window;
  tiny_window.keys = StandardThreeKeys();
  tiny_window.window = 1;
  EXPECT_FALSE(MergePurgeEngine(tiny_window).Run(dataset_, theory).ok());

  MergePurgeOptions wrong_schema;
  wrong_schema.keys = {KeySpec{"k", {KeyComponent::Full(0)}}};
  Dataset other(Schema({"x"}));
  other.Append(Record({"1"}));
  EXPECT_FALSE(MergePurgeEngine(wrong_schema).Run(other, theory).ok());
}

TEST_F(MultiPassTest, PurgeCollapsesComponentsAndMergesFields) {
  Dataset d(employee::MakeSchema());
  Record a;
  a.set_field(employee::kSsn, "123456789");
  a.set_field(employee::kFirstName, "J");
  a.set_field(employee::kLastName, "SMITH");
  Record b;
  b.set_field(employee::kSsn, "123456789");
  b.set_field(employee::kFirstName, "JOHN");  // More complete.
  b.set_field(employee::kLastName, "SMITH");
  Record c;
  c.set_field(employee::kSsn, "999999999");
  c.set_field(employee::kFirstName, "MARY");
  c.set_field(employee::kLastName, "JONES");
  d.Append(a);
  d.Append(b);
  d.Append(c);

  MergePurgeResult result;
  result.component_of = {0, 0, 2};
  Dataset purged = result.Purge(d);
  ASSERT_EQ(purged.size(), 2u);
  // Merged record keeps the longest (most complete) first name.
  EXPECT_EQ(purged.record(0).field(employee::kFirstName), "JOHN");
  EXPECT_EQ(purged.record(1).field(employee::kFirstName), "MARY");
}

TEST_F(MultiPassTest, EngineSinglePassSingleKey) {
  MergePurgeOptions options;
  options.keys = {LastNameKey()};
  options.window = 10;
  EmployeeTheory theory;
  auto result = MergePurgeEngine(options).Run(dataset_, theory);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->detail.passes.size(), 1u);
}

TEST_F(MultiPassTest, EngineClusteringMethod) {
  MergePurgeOptions options;
  options.method = MergePurgeOptions::Method::kClustering;
  options.keys = StandardThreeKeys();
  options.window = 10;
  options.clustering.num_clusters = 8;
  EmployeeTheory theory;
  auto result = MergePurgeEngine(options).Run(dataset_, theory);
  ASSERT_TRUE(result.ok());
  AccuracyReport report = EvaluateComponents(result->component_of, truth_);
  EXPECT_GT(report.recall_percent, 60.0);
}

Dataset ConditionedDatabase(uint64_t seed) {
  GeneratorConfig config;
  config.num_records = 1500;
  config.duplicate_selection_rate = 0.5;
  config.max_duplicates_per_record = 4;
  config.seed = seed;
  auto db = DatabaseGenerator(config).Generate();
  EXPECT_TRUE(db.ok());
  ConditionEmployeeDataset(&db->dataset);
  return std::move(db->dataset);
}

// A rerun after a failure must commit what a clean run commits. (That a
// clean run equals the serial passes is the cross-path contract,
// contract_test.)
void ExpectSameResult(const MultiPassResult& got, const MultiPassResult& want) {
  ASSERT_EQ(got.passes.size(), want.passes.size());
  for (size_t i = 0; i < got.passes.size(); ++i) {
    EXPECT_EQ(got.passes[i].pairs.packed(), want.passes[i].pairs.packed())
        << "pass " << i;
  }
  EXPECT_EQ(got.component_of, want.component_of);
}

class MultiPassFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { dataset_ = ConditionedDatabase(99); }

  Dataset dataset_;
  EmployeeTheory theory_;
};

// The employee theory, except that any comparison involving one record
// throws std::bad_alloc.
class ThrowingTheory final : public EquationalTheory {
 public:
  explicit ThrowingTheory(const Record* poison) : poison_(poison) {}
  bool Matches(const Record& a, const Record& b) const override {
    if (&a == poison_ || &b == poison_) throw std::bad_alloc();
    return inner_.Matches(a, b);
  }
  uint64_t comparison_count() const override {
    return inner_.comparison_count();
  }
  void AddComparisons(uint64_t n) const override {
    inner_.AddComparisons(n);
  }
  std::unique_ptr<EquationalTheory> Clone() const override {
    return std::make_unique<ThrowingTheory>(poison_);
  }

 private:
  const Record* poison_;
  EmployeeTheory inner_;
};

TEST_F(MultiPassFaultTest, ThrowingComparisonFailsTheRunInsteadOfHanging) {
  const ThrowingTheory theory(&dataset_.record(700));
  for (MultiPass::Method method : {MultiPass::Method::kSortedNeighborhood,
                                   MultiPass::Method::kClustering}) {
    SCOPED_TRACE(static_cast<int>(method));
    const MultiPass mp(method, 10);
    TempDir dir;
    auto result = mp.Run(dataset_, StandardThreeKeys(), theory, dir.path());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kPartialFailure);
    EXPECT_NE(result.status().message().find("bad_alloc"), std::string::npos)
        << result.status().message();
    // Every pass scans record 700 somewhere, so no pass is checkpointed.
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(ReadPassManifest(dir.path(), i).status().code(),
                StatusCode::kNotFound)
          << "pass " << i;
    }

    // With a plain theory, the same directory resumes nothing and the
    // run equals a clean one.
    auto rerun = mp.Run(dataset_, StandardThreeKeys(), theory_, dir.path());
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun->passes_resumed, 0u);
    auto clean = mp.Run(dataset_, StandardThreeKeys(), theory_);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ExpectSameResult(*rerun, *clean);
  }
}

}  // namespace
}  // namespace mergepurge
