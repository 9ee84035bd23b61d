// IncrementalMergePurge: batch-at-a-time operation — option and schema
// validation, all-or-nothing admission, and how entities, purge output
// and new-pair counts evolve over batches. That any batch sequence finds
// every pair a from-scratch run finds is the cross-path contract
// (contract_test).

#include <algorithm>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"

namespace mergepurge {
namespace {

// Splits a generated database into `parts` batches.
std::vector<Dataset> SplitBatches(const Dataset& all, size_t parts) {
  std::vector<Dataset> batches(parts, Dataset(all.schema()));
  size_t per_batch = (all.size() + parts - 1) / parts;
  for (size_t t = 0; t < all.size(); ++t) {
    batches[std::min(t / per_batch, parts - 1)].Append(
        all.record(static_cast<TupleId>(t)));
  }
  return batches;
}

TEST(IncrementalEdgeTest, ValidatesOptionsAndSchemas) {
  MergePurgeOptions no_keys;
  IncrementalMergePurge bad(no_keys);
  Dataset d(employee::MakeSchema());
  EmployeeTheory theory;
  EXPECT_FALSE(bad.AddBatch(d, theory).ok());

  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  options.window = 1;
  IncrementalMergePurge tiny(options);
  EXPECT_FALSE(tiny.AddBatch(d, theory).ok());

  options.window = 8;
  options.condition_records = true;
  IncrementalMergePurge wrong_schema(options);
  Dataset other(Schema({"x"}));
  other.Append(Record({"1"}));
  EXPECT_FALSE(wrong_schema.AddBatch(other, theory).ok());
}

// AddBatch is all-or-nothing: a key naming a field the schema lacks is
// rejected before any record is admitted, even when an earlier key in
// the list is valid.
TEST(IncrementalEdgeTest, BadKeyAdmitsNothing) {
  MergePurgeOptions options;
  options.keys = {KeySpec{"first", {KeyComponent::Full(0)}},
                  KeySpec{"absent", {KeyComponent::Full(7)}}};
  options.window = 4;
  options.condition_records = false;
  IncrementalMergePurge incremental(options);
  Dataset batch(Schema({"a", "b"}));
  batch.Append(Record({"x", "1"}));
  EmployeeTheory theory;
  EXPECT_FALSE(incremental.AddBatch(batch, theory).ok());
  EXPECT_EQ(incremental.size(), 0u);
  EXPECT_EQ(incremental.NumEntities(), 0u);
}

TEST(IncrementalEdgeTest, EntitiesAndPurgeEvolve) {
  GeneratorConfig config;
  config.num_records = 200;
  config.duplicate_selection_rate = 0.8;
  config.seed = 31;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());

  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  options.window = 8;
  IncrementalMergePurge incremental(options);
  EmployeeTheory theory;

  auto batches = SplitBatches(db->dataset, 3);
  size_t last_size = 0;
  for (const Dataset& batch : batches) {
    auto added = incremental.AddBatch(batch, theory);
    ASSERT_TRUE(added.ok());
    EXPECT_GE(incremental.size(), last_size);
    last_size = incremental.size();
    EXPECT_LE(incremental.NumEntities(), incremental.size());
  }
  Dataset purged = incremental.Purge();
  EXPECT_EQ(purged.size(), incremental.NumEntities());
  EXPECT_LT(purged.size(), incremental.size());
}

TEST(IncrementalEdgeTest, NewPairCountAccumulates) {
  GeneratorConfig config;
  config.num_records = 300;
  config.duplicate_selection_rate = 0.8;
  config.seed = 77;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());

  MergePurgeOptions options;
  options.keys = {LastNameKey()};
  options.window = 6;
  IncrementalMergePurge incremental(options);
  EmployeeTheory theory;

  uint64_t total_new = 0;
  for (const Dataset& batch : SplitBatches(db->dataset, 4)) {
    auto added = incremental.AddBatch(batch, theory);
    ASSERT_TRUE(added.ok());
    total_new += *added;
  }
  EXPECT_EQ(total_new, incremental.pairs().size());
}

}  // namespace
}  // namespace mergepurge
