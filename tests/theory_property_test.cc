// Property tests over the equational theory: symmetry, the compiler's
// bounded-threshold lowering vs the exact similarity, phonetic key
// behaviour, and determinism of the whole engine.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/merge_purge.h"
#include "core/sorted_neighborhood.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"
#include "rules/rule_program.h"
#include "text/normalize.h"
#include "util/random.h"
#include "util/string_util.h"

namespace mergepurge {
namespace {

class TheoryPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_records = 400;
    config.duplicate_selection_rate = 0.6;
    config.seed = GetParam();
    auto db = DatabaseGenerator(config).Generate();
    ASSERT_TRUE(db.ok());
    dataset_ = std::move(db->dataset);
    ConditionEmployeeDataset(&dataset_);
  }

  Dataset dataset_;
};

TEST_P(TheoryPropertyTest, MatchesIsSymmetric) {
  EmployeeTheory theory;
  Rng rng(GetParam() * 31);
  const size_t n = dataset_.size();
  for (int trial = 0; trial < 2000; ++trial) {
    TupleId a = static_cast<TupleId>(rng.NextBounded(n));
    TupleId b = static_cast<TupleId>(rng.NextBounded(n));
    EXPECT_EQ(theory.Matches(dataset_.record(a), dataset_.record(b)),
              theory.Matches(dataset_.record(b), dataset_.record(a)))
        << dataset_.record(a).DebugString() << " vs "
        << dataset_.record(b).DebugString();
  }
}

TEST_P(TheoryPropertyTest, MatchesIsReflexive) {
  EmployeeTheory theory;
  for (size_t t = 0; t < dataset_.size(); t += 7) {
    EXPECT_TRUE(theory.Matches(dataset_.record(static_cast<TupleId>(t)),
                               dataset_.record(static_cast<TupleId>(t))));
  }
}

TEST_P(TheoryPropertyTest, LoweredThresholdMatchesExactSimilarity) {
  // `f(x, y) >= t` compiles to a distance bounded at the threshold;
  // `1 * f(x, y) >= t` is evaluated in full. They must agree on every
  // boundary, for each typo similarity; thresholds above 1 are not
  // lowered.
  const Schema schema = employee::MakeSchema();
  struct Check {
    std::string label;
    RuleProgram lowered;
    RuleProgram exact;
  };
  std::vector<Check> checks;
  for (const char* function :
       {"similarity", "edit_similarity", "keyboard_similarity"}) {
    for (double threshold :
         {0.0, 0.5, 0.7, 0.75, 0.8, 0.9, 1.0, 1.5, 99999999999.0}) {
      const std::string call =
          std::string(function) + "(r1.last_name, r2.last_name)";
      const std::string bound = StringPrintf("%.17g", threshold);
      const std::string label = call + " >= " + bound;
      auto lowered = RuleProgram::Compile(
          "rule t: if " + call + " >= " + bound + " then match", schema);
      auto exact = RuleProgram::Compile(
          "rule t: if 1 * " + call + " >= " + bound + " then match", schema);
      ASSERT_TRUE(lowered.ok()) << label << ": " << lowered.status().ToString();
      ASSERT_TRUE(exact.ok()) << label << ": " << exact.status().ToString();
      checks.push_back({label, std::move(*lowered), std::move(*exact)});
    }
  }
  Rng rng(GetParam() * 57 + 1);
  for (int trial = 0; trial < 1500; ++trial) {
    // Random short strings over a tiny alphabet to hit boundaries often.
    auto make = [&rng] {
      Record record;
      std::string s;
      size_t len = rng.NextBounded(12);
      for (size_t i = 0; i < len; ++i) {
        s += static_cast<char>('A' + rng.NextBounded(3));
      }
      record.set_field(employee::kLastName, s);
      return record;
    };
    const Record x = make();
    const Record y = make();
    for (const Check& check : checks) {
      EXPECT_EQ(check.lowered.Matches(x, y), check.exact.Matches(x, y))
          << check.label << ": x=" << x.DebugString()
          << " y=" << y.DebugString();
    }
  }
}

TEST_P(TheoryPropertyTest, EngineIsDeterministic) {
  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  options.window = 6;
  MergePurgeEngine engine(options);
  EmployeeTheory theory;
  auto first = engine.Run(dataset_, theory);
  auto second = engine.Run(dataset_, theory);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->component_of, second->component_of);
  EXPECT_EQ(first->num_entities, second->num_entities);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoryPropertyTest,
                         ::testing::Values(5, 6, 7));

TEST(PhoneticKeyTest, SoundexComponentIsFixedWidthAndTypoInvariant) {
  KeySpec spec = PhoneticLastNameKey();
  KeyBuilder builder(spec);

  Record a;
  a.set_field(employee::kLastName, "SMITH");
  a.set_field(employee::kFirstName, "JOHN");
  a.set_field(employee::kSsn, "123456789");
  Record b = a;
  b.set_field(employee::kLastName, "SMYTH");  // Typo, same Soundex.

  std::string key_a = builder.BuildKey(a);
  std::string key_b = builder.BuildKey(b);
  // The phonetic prefix (first 4 chars) is identical despite the typo.
  EXPECT_EQ(key_a.substr(0, 4), key_b.substr(0, 4));
  EXPECT_EQ(key_a.substr(0, 4), "S530");
}

TEST(PhoneticKeyTest, PhoneticKeySurvivesPrincipalFieldTypo) {
  // A typo in the FIRST letter of the last name destroys the plain
  // last-name ordering but not always the phonetic one... demonstrate the
  // complementary case the multi-pass approach exploits: vowel typos leave
  // Soundex unchanged entirely.
  KeyBuilder plain(LastNameKey());
  KeyBuilder phonetic(PhoneticLastNameKey());
  Record a;
  a.set_field(employee::kLastName, "JOHNSON");
  a.set_field(employee::kFirstName, "MARY");
  a.set_field(employee::kSsn, "111223333");
  Record b = a;
  b.set_field(employee::kLastName, "JIHNSON");  // o->i vowel typo.

  EXPECT_NE(plain.BuildKey(a).substr(0, 4), plain.BuildKey(b).substr(0, 4));
  EXPECT_EQ(phonetic.BuildKey(a).substr(0, 4),
            phonetic.BuildKey(b).substr(0, 4));
}

TEST(PhoneticKeyTest, UsableAsExtraMultipassKey) {
  GeneratorConfig config;
  config.num_records = 600;
  config.duplicate_selection_rate = 0.5;
  config.seed = 97;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());
  ConditionEmployeeDataset(&db->dataset);
  EmployeeTheory theory;
  auto pass = SortedNeighborhood(8).Run(db->dataset, PhoneticLastNameKey(),
                                        theory);
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  AccuracyReport report =
      EvaluatePairSet(pass->pairs, db->dataset.size(), db->truth);
  EXPECT_GT(report.recall_percent, 30.0);
}

}  // namespace
}  // namespace mergepurge
