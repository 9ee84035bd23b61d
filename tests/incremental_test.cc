// IncrementalMergePurge: batch-at-a-time operation — option and schema
// validation, all-or-nothing admission, how entities, purge output and
// new-pair counts evolve over batches, and what its scans add to the
// snm.* counters. That any batch sequence finds every pair a
// from-scratch run finds is the cross-path contract (contract_test).

#include <algorithm>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
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

uint64_t SnmCounter(const char* name) {
  return MetricsRegistry::Global().Snapshot().counter(name);
}

uint64_t RulesFired() {
  uint64_t total = 0;
  for (const auto& [name, value] :
       MetricsRegistry::Global().Snapshot().counters) {
    if (name.rfind(metric_names::kRulesFiredPrefix, 0) == 0) total += value;
  }
  return total;
}

// Every incremental scan counts in snm.*, on the calling thread and on
// the pool, and so does every probe: snm.comparisons grows by the
// theory's own count, and the rules fired sum to snm.matches.
TEST(IncrementalEdgeTest, ScansCountInSnmCounters) {
  GeneratorConfig config;
  config.num_records = 1000;
  config.seed = 31;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());
  const Dataset& all = db->dataset;
  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  options.window = 10;
  IncrementalMergePurge engine(options);
  EmployeeTheory theory;

  const uint64_t comparisons_before =
      SnmCounter(metric_names::kSnmComparisons);
  const uint64_t matches_before = SnmCounter(metric_names::kSnmMatches);
  const uint64_t fired_before = RulesFired();
  const uint64_t theory_before = theory.comparison_count();

  // 10 records scan on the calling thread; the rest enter three orders
  // at over kPooledScanPositions positions, so they scan on the pool.
  Dataset small(all.schema());
  Dataset large(all.schema());
  for (size_t t = 0; t < all.size(); ++t) {
    (t < 10 ? small : large).Append(all.record(static_cast<TupleId>(t)));
  }
  ASSERT_GE(large.size() * options.keys.size(),
            IncrementalMergePurge::kPooledScanPositions);
  ASSERT_TRUE(engine.AddBatch(small, theory).ok());
  ASSERT_TRUE(engine.AddBatch(large, theory).ok());
  for (TupleId t : {0u, 17u, 400u}) {
    ASSERT_TRUE(engine.MatchOnly(all.record(t), theory).ok());
  }
  theory.FlushMetrics();

  const uint64_t comparisons =
      SnmCounter(metric_names::kSnmComparisons) - comparisons_before;
  const uint64_t matches =
      SnmCounter(metric_names::kSnmMatches) - matches_before;
  EXPECT_GT(comparisons, 0u);
  EXPECT_GT(matches, 0u);
  EXPECT_EQ(comparisons, theory.comparison_count() - theory_before);
  EXPECT_EQ(RulesFired() - fired_before, matches);
}

}  // namespace
}  // namespace mergepurge
