// Property tests over the equational theory: symmetry, the compiler's
// bounded-threshold lowering vs the exact similarity, the row path (block
// scans) against single comparisons and against the built-ins' textbook
// definitions, phonetic key behaviour, and determinism of the whole
// engine.

#include <algorithm>
#include <cctype>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/merge_purge.h"
#include "core/sorted_neighborhood.h"
#include "core/window_scanner.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"
#include "rules/rule_program.h"
#include "text/edit_distance.h"
#include "text/nicknames.h"
#include "text/normalize.h"
#include "text/phonetic.h"
#include "text/predicates.h"
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

// --- The row path. ---
//
// A window scan loads its records as the theory's rows, chunk by chunk,
// and compares rows. These tests check that every pair it compares is a
// window pair of the sort order and fires the rule MatchingRule(record,
// record) fires, and that each built-in evaluated on rows keeps its
// textbook definition.

// Every built-in: same_name on mixed-case and unknown names, sounds_like,
// the string built-ins as operands (prefix also with a length read from
// the other record, computed per pair), the similarity family, and a
// boolean == of two predicates.
constexpr char kAllBuiltinsRules[] = R"RULES(
rule names:
  if same_name(r1.first_name, r2.first_name)
  and sounds_like(r1.last_name, r2.last_name)
  and (r1.zip == r2.zip or damerau(r1.ssn, r2.ssn) <= 2)
  then match
rule string-operands:
  if nickname(r1.first_name) == nickname(r2.first_name)
  and soundex(r1.last_name) == soundex(r2.last_name)
  and nysiis(r1.last_name) == nysiis(r2.last_name)
  and street_number(r1.address) == street_number(r2.address)
  and digits(r1.ssn) == digits(r2.ssn) and not empty(digits(r1.ssn))
  then match
rule prefixes:
  if prefix(r1.last_name, 3) == prefix(r2.last_name, 3)
  and prefix(r1.city, length(r2.state)) == prefix(r2.city, length(r2.state))
  and similarity(r1.address, r2.address) >= 0.75
  then match
rule typo-family:
  if keyboard_similarity(r1.last_name, r2.last_name) >= 0.8
  and jaro_winkler(r1.first_name, r2.first_name) >= 0.85
  and ngram_similarity(r1.address, r2.address, 2) >= 0.5
  then match
rule edits:
  if edit_similarity(r1.city, r2.city) >= 0.8
  and edit_distance(r1.address, r2.address) <= 4
  and similarity(nickname(r1.first_name), nickname(r2.first_name)) >= 0.7
  then match
rule predicates:
  if same_name(r1.first_name, r2.first_name) ==
     sounds_like(r1.last_name, r2.last_name)
  and (initial_match(r1.first_name, r2.first_name)
       or transposed(r1.ssn, r2.ssn)
       or hyphen_extended(r1.last_name, r2.last_name))
  and either_present(r1.apartment, r2.apartment) * 2 >= length(r1.state)
  then match
)RULES";

// Generated employee records, conditioned, then: first names respelled
// in mixed or lower case or swapped for a nickname variant (also one the
// table does not know), and trailing fields dropped from some records.
Dataset RowPathData(uint64_t seed, size_t originals) {
  GeneratorConfig config;
  config.num_records = originals;
  config.duplicate_selection_rate = 0.6;
  config.seed = seed;
  auto db = DatabaseGenerator(config).Generate();
  EXPECT_TRUE(db.ok());
  Dataset dataset = std::move(db->dataset);
  ConditionEmployeeDataset(&dataset);
  const std::vector<std::string> variants = {
      "Bob", "bobby", "Robert", "ROB", "bill", "William", "Liam", "Joe",
      "giuseppe", "Xaviera", "XAVIERA", "jon", "Juan", "Sean", "ian"};
  Rng rng(seed * 13 + 5);
  for (TupleId t = 0; t < dataset.size(); ++t) {
    Record& record = dataset.mutable_record(t);
    const uint64_t roll = rng.NextBounded(10);
    if (roll == 0) {
      record.set_field(employee::kFirstName,
                       variants[rng.NextBounded(variants.size())]);
    } else if (roll == 1) {
      std::string name(record.field(employee::kFirstName));
      for (size_t i = 1; i < name.size(); ++i) {
        name[i] = static_cast<char>(
            std::tolower(static_cast<unsigned char>(name[i])));
      }
      record.set_field(employee::kFirstName, name);
    } else if (roll == 2) {
      record.mutable_fields().resize(
          1 + rng.NextBounded(employee::kNumFields - 1));
    }
  }
  return dataset;
}

// Forwards to a RuleProgram and records, per compared pair of rows, the
// two records and the rule that fired.
class RecordingTheory : public EquationalTheory {
 public:
  struct Comparison {
    const Record* a;
    const Record* b;
    int rule;
  };

  explicit RecordingTheory(const RuleProgram& program) : program_(program) {}

  void LoadRows(const Record* const* records, size_t n) const override {
    rows_.assign(records, records + n);
    program_.LoadRows(records, n);
  }
  bool MatchesRows(size_t i, size_t j) const override {
    if (i >= rows_.size() || j >= rows_.size()) {
      ADD_FAILURE() << "rows " << i << ", " << j << " of " << rows_.size();
      comparisons_.push_back({nullptr, nullptr, -1});
      return false;
    }
    const int rule = program_.MatchingRuleRows(i, j);
    comparisons_.push_back({rows_[i], rows_[j], rule});
    return rule >= 0;
  }
  bool Matches(const Record& a, const Record& b) const override {
    return program_.Matches(a, b);
  }
  uint64_t comparison_count() const override {
    return program_.comparison_count();
  }
  void AddComparisons(uint64_t n) const override {
    program_.AddComparisons(n);
  }
  std::unique_ptr<EquationalTheory> Clone() const override {
    return std::make_unique<RecordingTheory>(program_);
  }

  const std::vector<Comparison>& comparisons() const { return comparisons_; }

 private:
  RuleProgram program_;
  mutable std::vector<const Record*> rows_;
  mutable std::vector<Comparison> comparisons_;
};

// Scans order[begin, end), entering from `fresh`, with `window` through
// the block path, and checks it compares exactly the window pairs, in
// scan order, each firing MatchingRule's rule; returns the number of
// pairs that matched.
size_t CheckBlockScan(const Dataset& dataset,
                      const std::vector<TupleId>& order, size_t window,
                      size_t begin, size_t fresh, size_t end,
                      const RuleProgram& program) {
  RecordingTheory scanned(program);
  std::vector<uint64_t> matches;
  const ScanStats stats = WindowScanner(window).ScanRange(
      dataset, order, begin, fresh, end, scanned, &matches);
  const RuleProgram reference(program);
  size_t k = 0;
  size_t fired = 0;
  size_t m = 0;
  for (size_t i = std::max(fresh, begin + 1); i < end; ++i) {
    for (size_t j = i - begin >= window - 1 ? i - (window - 1) : begin;
         j < i; ++j, ++k) {
      if (k >= scanned.comparisons().size()) {
        ADD_FAILURE() << "scan stopped after " << k << " comparisons";
        return fired;
      }
      const RecordingTheory::Comparison& seen = scanned.comparisons()[k];
      const Record& a = dataset.record(order[j]);
      const Record& b = dataset.record(order[i]);
      if (seen.a != &a || seen.b != &b) {
        ADD_FAILURE() << "comparison " << k << " is not positions (" << j
                      << ", " << i << ")";
        return fired;
      }
      const int want = reference.MatchingRule(a, b);
      if (seen.rule != want) {
        ADD_FAILURE() << "positions (" << j << ", " << i << "): rule "
                      << seen.rule << ", MatchingRule gives " << want
                      << "\n  " << a.DebugString() << "\n  "
                      << b.DebugString();
        return fired;
      }
      if (want >= 0) {
        ++fired;
        EXPECT_LT(m, matches.size());
        if (m < matches.size()) {
          EXPECT_EQ(matches[m], PackMatch(order[j], order[i]));
        }
        ++m;
      }
    }
  }
  EXPECT_EQ(k, scanned.comparisons().size());
  EXPECT_EQ(stats.comparisons, k);
  EXPECT_EQ(matches.size(), m);
  return fired;
}

std::vector<RuleProgram> RowPathPrograms() {
  std::vector<RuleProgram> programs;
  programs.push_back(EmployeeTheory());
  auto all = RuleProgram::Compile(kAllBuiltinsRules, employee::MakeSchema());
  EXPECT_TRUE(all.ok()) << all.status().ToString();
  if (all.ok()) programs.push_back(std::move(*all));
  return programs;
}

std::vector<TupleId> LastNameOrder(const Dataset& dataset) {
  return SortedNeighborhood::SortByKey(dataset, LastNameKey());
}

TEST(RowPathTest, BlockScanFiresMatchingRulesRule) {
  constexpr size_t kChunk = WindowScanner::kScanChunk;
  const Dataset dataset = RowPathData(5, 1500);
  const std::vector<TupleId> order = LastNameOrder(dataset);
  const size_t n = order.size();
  ASSERT_GT(n, 2 * kChunk + 100);
  for (const RuleProgram& program : RowPathPrograms()) {
    // Whole orders longer than two chunks, at two windows.
    EXPECT_GT(CheckBlockScan(dataset, order, 10, 0, 0, n, program), 50u);
    CheckBlockScan(dataset, order, 3, 0, 0, n, program);
    // A banded fragment: context rows before `fresh`, chunk boundaries
    // that do not fall on fragment boundaries.
    CheckBlockScan(dataset, order, 10, 37, 37 + 9, n - 11, program);
    CheckBlockScan(dataset, order, 10, kChunk - 5, kChunk + 4, n, program);
  }
}

TEST(RowPathTest, WindowLargerThanTheChunk) {
  // The block carries window - 1 > kScanChunk rows into each chunk.
  constexpr size_t kChunk = WindowScanner::kScanChunk;
  const Dataset dataset = RowPathData(8, 1200);
  const std::vector<TupleId> order = LastNameOrder(dataset);
  ASSERT_GT(order.size(), 2 * kChunk + 20);
  const size_t window = kChunk + 6;
  const size_t fresh = order.size() - kChunk - 3;
  EXPECT_GT(CheckBlockScan(dataset, order, window, 0, fresh, order.size(),
                           EmployeeTheory()),
            0u);
}

// Each built-in, evaluated on rows, against its definition in src/text/:
// every leaf alone, and as one rule among all of them, where a pair fires
// the first leaf that holds and each row holds the masks of several
// fields, so a mask read from the wrong field changes some distance.
TEST_P(TheoryPropertyTest, RowBuiltinsKeepTheirDefinitions) {
  using employee::kAddress;
  using employee::kCity;
  using employee::kFirstName;
  using employee::kLastName;
  using employee::kSsn;
  struct Leaf {
    const char* condition;
    bool (*holds)(const Record& a, const Record& b);
  };
  const std::vector<Leaf> leaves = {
      {"same_name(r1.first_name, r2.first_name)",
       [](const Record& a, const Record& b) {
         return NicknameTable::Default().Canonicalize(a.field(kFirstName)) ==
                NicknameTable::Default().Canonicalize(b.field(kFirstName));
       }},
      {"sounds_like(r1.last_name, r2.last_name)",
       [](const Record& a, const Record& b) {
         const std::string code = Soundex(a.field(kLastName));
         return !code.empty() && code == Soundex(b.field(kLastName));
       }},
      {"nickname(r1.first_name) == r2.first_name",
       [](const Record& a, const Record& b) {
         return NicknameTable::Default().Canonicalize(a.field(kFirstName)) ==
                b.field(kFirstName);
       }},
      {"nysiis(r1.last_name) == nysiis(r2.first_name)",
       [](const Record& a, const Record& b) {
         return Nysiis(a.field(kLastName)) == Nysiis(b.field(kFirstName));
       }},
      {"street_number(r1.address) == digits(r2.address)",
       [](const Record& a, const Record& b) {
         std::string digits;
         for (char c : b.field(kAddress)) {
           if (c >= '0' && c <= '9') digits += c;
         }
         return StreetNumber(a.field(kAddress)) == digits;
       }},
      {"prefix(r1.last_name, 2) == prefix(r2.city, 2)",
       [](const Record& a, const Record& b) {
         return a.field(kLastName).substr(0, 2) == b.field(kCity).substr(0, 2);
       }},
      {"similarity(r1.first_name, r2.first_name) >= 0.8",
       [](const Record& a, const Record& b) {
         return StringSimilarity(a.field(kFirstName), b.field(kFirstName)) >=
                0.8;
       }},
      {"similarity(r1.last_name, r2.last_name) >= 0.75",
       [](const Record& a, const Record& b) {
         return StringSimilarity(a.field(kLastName), b.field(kLastName)) >=
                0.75;
       }},
      {"similarity(r1.address, r2.address) >= 0.7",
       [](const Record& a, const Record& b) {
         return StringSimilarity(a.field(kAddress), b.field(kAddress)) >= 0.7;
       }},
      {"edit_similarity(r1.city, r2.city) >= 0.7",
       [](const Record& a, const Record& b) {
         const size_t longest =
             std::max(a.field(kCity).size(), b.field(kCity).size());
         return longest == 0 ||
                1.0 - static_cast<double>(
                          EditDistance(a.field(kCity), b.field(kCity))) /
                          static_cast<double>(longest) >=
                    0.7;
       }},
      {"damerau(r1.ssn, r2.ssn) <= 3",
       [](const Record& a, const Record& b) {
         return DamerauDistance(a.field(kSsn), b.field(kSsn)) <= 3;
       }},
      {"edit_distance(r1.address, r2.city) <= 12",
       [](const Record& a, const Record& b) {
         return EditDistance(a.field(kAddress), b.field(kCity)) <= 12;
       }},
  };
  const Dataset dataset = RowPathData(GetParam(), 1200);
  const std::vector<TupleId> order = LastNameOrder(dataset);
  std::vector<const Record*> rows;
  for (TupleId t : order) rows.push_back(&dataset.record(t));
  // Each leaf alone, then behind all the others (their masks come first).
  for (size_t l = 0; l < leaves.size(); ++l) {
    std::string alone = "rule alone: if ";
    alone += leaves[l].condition;
    alone += " then match\n";
    std::string behind;
    for (size_t k = 0; k < leaves.size(); ++k) {
      behind += StringPrintf("rule r%zu: if %s then match\n", k,
                             leaves[(l + 1 + k) % leaves.size()].condition);
    }
    for (const std::string& source : {alone, behind}) {
      auto program = RuleProgram::Compile(source, employee::MakeSchema());
      ASSERT_TRUE(program.ok()) << source << program.status().ToString();
      program->LoadRows(rows.data(), rows.size());
      size_t held = 0;
      for (size_t i = 1; i < rows.size(); ++i) {
        for (size_t j = i >= 9 ? i - 9 : 0; j < i; ++j) {
          int want = -1;
          const size_t num_rules = program->num_rules();
          for (size_t r = 0; r < num_rules && want < 0; ++r) {
            const Leaf& leaf =
                num_rules == 1 ? leaves[l]
                               : leaves[(l + 1 + r) % leaves.size()];
            if (leaf.holds(*rows[j], *rows[i])) want = static_cast<int>(r);
          }
          ASSERT_EQ(program->MatchingRuleRows(j, i), want)
              << source << rows[j]->DebugString() << "\n"
              << rows[i]->DebugString();
          held += want >= 0 ? 1 : 0;
        }
      }
      EXPECT_GT(held, 0u) << source;
    }
  }
}

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
