// Deeper incremental-engine properties: monotone pair accumulation, the
// entity count, and agreement between incremental components and an
// offline closure over the same accumulated pairs. That any batching
// keeps every pair of a from-scratch run is the cross-path contract
// (contract_test).

#include <algorithm>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "core/multipass.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"

namespace mergepurge {
namespace {

std::vector<Dataset> SplitEvery(const Dataset& all, size_t stride) {
  std::vector<Dataset> batches;
  for (size_t start = 0; start < all.size(); start += stride) {
    Dataset batch(all.schema());
    for (size_t t = start; t < std::min(all.size(), start + stride); ++t) {
      batch.Append(all.record(static_cast<TupleId>(t)));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

class IncrementalPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_records = 500;
    config.duplicate_selection_rate = 0.6;
    config.max_duplicates_per_record = 3;
    config.seed = GetParam();
    auto db = DatabaseGenerator(config).Generate();
    ASSERT_TRUE(db.ok());
    raw_ = std::move(db->dataset);
  }

  MergePurgeOptions Options() const {
    MergePurgeOptions options;
    options.keys = {LastNameKey(), AddressKey()};
    options.window = 6;
    return options;
  }

  Dataset raw_;
  EmployeeTheory theory_;
};

TEST_P(IncrementalPropertyTest, PairsAccumulateMonotonically) {
  IncrementalMergePurge engine(Options());
  size_t previous_pairs = 0;
  size_t previous_records = 0;
  for (const Dataset& batch : SplitEvery(raw_, 120)) {
    ASSERT_TRUE(engine.AddBatch(batch, theory_).ok());
    EXPECT_GE(engine.pairs().size(), previous_pairs);
    EXPECT_GT(engine.size(), previous_records);
    previous_pairs = engine.pairs().size();
    previous_records = engine.size();
  }
}

TEST_P(IncrementalPropertyTest, ComponentsEqualOfflineClosureOfPairs) {
  IncrementalMergePurge engine(Options());
  for (const Dataset& batch : SplitEvery(raw_, 100)) {
    ASSERT_TRUE(engine.AddBatch(batch, theory_).ok());
  }
  auto incremental = engine.ComponentLabels();
  auto offline = TransitiveClosure(engine.pairs(), engine.size());
  ASSERT_EQ(incremental.size(), offline.size());
  // Same partition (labels may differ; co-membership must not).
  for (size_t i = 0; i < incremental.size(); i += 3) {
    for (size_t j = i + 1; j < std::min(incremental.size(), i + 40); ++j) {
      EXPECT_EQ(incremental[i] == incremental[j],
                offline[i] == offline[j])
          << i << "," << j;
    }
  }
}

TEST_P(IncrementalPropertyTest, EntityCountMatchesClosure) {
  IncrementalMergePurge engine(Options());
  for (const Dataset& batch : SplitEvery(raw_, 150)) {
    ASSERT_TRUE(engine.AddBatch(batch, theory_).ok());
  }
  // NumEntities (live union-find) == distinct labels.
  auto labels = engine.ComponentLabels();
  std::sort(labels.begin(), labels.end());
  size_t distinct =
      static_cast<size_t>(std::unique(labels.begin(), labels.end()) -
                          labels.begin());
  EXPECT_EQ(engine.NumEntities(), distinct);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPropertyTest,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace mergepurge
