#include <gtest/gtest.h>

#include "core/purge_policy.h"
#include "rules/rule_program.h"

namespace mergepurge {
namespace {

Dataset ClassDataset() {
  // Three records of one entity with conflicting field values.
  Dataset d(Schema({"name", "nick", "city"}));
  d.Append(Record({"JO", "JOEY", "NYC"}));
  d.Append(Record({"JOSEPH", "", "NYC"}));
  d.Append(Record({"JOE", "JOEY", ""}));
  return d;
}

TEST(MergeStrategyTest, NamesResolve) {
  EXPECT_TRUE(MergeStrategyFromName("longest").ok());
  EXPECT_TRUE(MergeStrategyFromName("most_frequent").ok());
  EXPECT_TRUE(MergeStrategyFromName("first_seen").ok());
  EXPECT_TRUE(MergeStrategyFromName("non_empty_first").ok());
  EXPECT_TRUE(MergeStrategyFromName("concat_distinct").ok());
  EXPECT_FALSE(MergeStrategyFromName("bogus").ok());
}

TEST(PurgePolicyTest, DefaultIsLongest) {
  PurgePolicy policy;
  Dataset d = ClassDataset();
  Record merged = policy.MergeClass(d, std::vector<TupleId>{0, 1, 2});
  EXPECT_EQ(merged.field(0), "JOSEPH");
  EXPECT_EQ(merged.field(1), "JOEY");
  EXPECT_EQ(merged.field(2), "NYC");
}

TEST(PurgePolicyTest, MostFrequentVotes) {
  PurgePolicy policy;
  policy.Set(0, MergeStrategy::kMostFrequent);
  Dataset d(Schema({"name"}));
  d.Append(Record({"SMITH"}));
  d.Append(Record({"SMYTH"}));
  d.Append(Record({"SMITH"}));
  d.Append(Record({""}));
  Record merged = policy.MergeClass(d, std::vector<TupleId>{0, 1, 2, 3});
  EXPECT_EQ(merged.field(0), "SMITH");
}

TEST(PurgePolicyTest, MostFrequentTieGoesToFirstSeen) {
  PurgePolicy policy;
  policy.Set(0, MergeStrategy::kMostFrequent);
  Dataset d(Schema({"name"}));
  d.Append(Record({"B"}));
  d.Append(Record({"A"}));
  Record merged = policy.MergeClass(d, std::vector<TupleId>{0, 1});
  EXPECT_EQ(merged.field(0), "B");
}

TEST(PurgePolicyTest, FirstSeenAndNonEmptyFirst) {
  PurgePolicy policy;
  policy.Set(0, MergeStrategy::kFirstSeen);
  policy.Set(1, MergeStrategy::kNonEmptyFirst);
  Dataset d(Schema({"a", "b"}));
  d.Append(Record({"", ""}));
  d.Append(Record({"x", "y"}));
  Record merged = policy.MergeClass(d, std::vector<TupleId>{0, 1});
  EXPECT_EQ(merged.field(0), "");   // First seen, even if empty.
  EXPECT_EQ(merged.field(1), "y");  // First non-empty.
}

TEST(PurgePolicyTest, ConcatDistinctKeepsAliases) {
  PurgePolicy policy;
  policy.Set(0, MergeStrategy::kConcatDistinct);
  Dataset d(Schema({"name"}));
  d.Append(Record({"SMITH"}));
  d.Append(Record({"JONES"}));
  d.Append(Record({"SMITH"}));
  d.Append(Record({""}));
  Record merged = policy.MergeClass(d, std::vector<TupleId>{0, 1, 2, 3});
  EXPECT_EQ(merged.field(0), "SMITH / JONES");
}

TEST(PurgePolicyTest, PurgeGroupsByComponent) {
  PurgePolicy policy;
  Dataset d(Schema({"v"}));
  d.Append(Record({"a"}));
  d.Append(Record({"bb"}));
  d.Append(Record({"c"}));
  Result<Dataset> purged = policy.Purge(d, {0, 0, 2});
  ASSERT_TRUE(purged.ok()) << purged.status().ToString();
  ASSERT_EQ(purged->size(), 2u);
  EXPECT_EQ(purged->record(0).field(0), "bb");  // Longest of {a, bb}.
  EXPECT_EQ(purged->record(1).field(0), "c");
}

// Classes come out in order of their first tuple, whatever their labels,
// and each merges its members in ascending tuple id (first_seen shows it).
TEST(PurgePolicyTest, PurgeKeepsFirstAppearanceAndTupleOrder) {
  PurgePolicy policy;
  policy.Set(0, MergeStrategy::kFirstSeen);
  policy.Set(1, MergeStrategy::kConcatDistinct);
  Dataset d(Schema({"first", "all"}));
  const std::vector<uint32_t> labels = {3, 1, 3, 1, 4, 3};
  for (size_t t = 0; t < labels.size(); ++t) {
    d.Append(Record({std::to_string(t), std::to_string(t)}));
  }
  Result<Dataset> purged = policy.Purge(d, labels);
  ASSERT_TRUE(purged.ok()) << purged.status().ToString();
  ASSERT_EQ(purged->size(), 3u);
  EXPECT_EQ(purged->record(0).field(0), "0");
  EXPECT_EQ(purged->record(0).field(1), "0 / 2 / 5");
  EXPECT_EQ(purged->record(1).field(0), "1");
  EXPECT_EQ(purged->record(1).field(1), "1 / 3");
  EXPECT_EQ(purged->record(2).field(1), "4");
}

TEST(PurgePolicyTest, PurgeRejectsLabelsThatAreNotTupleIds) {
  PurgePolicy policy;
  Dataset d(Schema({"v"}));
  d.Append(Record({"a"}));
  d.Append(Record({"bb"}));
  d.Append(Record({"c"}));
  EXPECT_FALSE(policy.Purge(d, {5, 5, 9}).ok());
  EXPECT_FALSE(policy.Purge(d, {0, 0, 3}).ok());
  EXPECT_FALSE(policy.Purge(d, {0, 0}).ok());
  EXPECT_FALSE(policy.Purge(d, {0, 0, 2, 2}).ok());
  EXPECT_TRUE(policy.Purge(d, {2, 2, 2}).ok());
}

TEST(PurgePolicyDslTest, MergeDirectivesCompile) {
  auto program = RuleProgram::Compile(
      "merge first_name: prefer most_frequent\n"
      "merge last_name: prefer concat_distinct\n"
      "rule same-ssn: if r1.ssn == r2.ssn then match\n",
      employee::MakeSchema());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const PurgePolicy& policy = program->purge_policy();
  EXPECT_EQ(policy.strategy_for(employee::kFirstName),
            MergeStrategy::kMostFrequent);
  EXPECT_EQ(policy.strategy_for(employee::kLastName),
            MergeStrategy::kConcatDistinct);
  EXPECT_EQ(policy.strategy_for(employee::kCity), MergeStrategy::kLongest);
}

TEST(PurgePolicyDslTest, DirectiveErrors) {
  Schema schema = employee::MakeSchema();
  EXPECT_FALSE(RuleProgram::Compile(
                   "merge nope: prefer longest\n"
                   "rule r: if r1.ssn == r2.ssn then match",
                   schema)
                   .ok());
  EXPECT_FALSE(RuleProgram::Compile(
                   "merge city: prefer sideways\n"
                   "rule r: if r1.ssn == r2.ssn then match",
                   schema)
                   .ok());
  EXPECT_FALSE(RuleProgram::Compile(
                   "merge city prefer longest\n"
                   "rule r: if r1.ssn == r2.ssn then match",
                   schema)
                   .ok());
  // A program with only directives and no rules is rejected.
  EXPECT_FALSE(
      RuleProgram::Compile("merge city: prefer longest\n", schema).ok());
}

}  // namespace
}  // namespace mergepurge
