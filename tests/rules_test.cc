#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "rules/analysis/diagnostics.h"
#include "rules/employee_theory.h"
#include "rules/lexer.h"
#include "rules/parser.h"
#include "rules/rule_program.h"
#include "rules/theory_loader.h"

namespace mergepurge {
namespace {

// --- Lexer. ---

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("rule x: if a >= 0.8 then match");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 10u);  // 9 tokens + end.
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kColon);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kOp);
  EXPECT_EQ((*tokens)[6].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ((*tokens)[6].number, 0.8);
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(LexerTest, CommentsAndStrings) {
  auto tokens = Tokenize("# comment\n\"str,ing\" ident-with-dash");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[0].text, "str,ing");
  EXPECT_EQ((*tokens)[1].text, "ident-with-dash");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("a = b").ok());       // Bare '=' invalid.
  EXPECT_FALSE(Tokenize("a @ b").ok());       // Unknown character.
}

TEST(LexerTest, LineNumbersInErrors) {
  auto result = Tokenize("ok tokens\nbad @");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

// --- Parser. ---

TEST(ParserTest, MinimalRule) {
  auto ast = ParseRuleProgram(
      "rule r1: if r1.ssn == r2.ssn then match");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  ASSERT_EQ(ast->rules.size(), 1u);
  EXPECT_EQ(ast->rules[0].name, "r1");
}

TEST(ParserTest, BooleanStructure) {
  auto ast = ParseRuleProgram(
      "rule r: if (a(r1.ssn) or not b(r2.ssn)) and c(r1.zip) then match");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  const BoolExpr& cond = *ast->rules[0].condition;
  EXPECT_EQ(cond.kind, BoolKind::kAnd);
  ASSERT_EQ(cond.children.size(), 2u);
  EXPECT_EQ(cond.children[0]->kind, BoolKind::kOr);
  EXPECT_EQ(cond.children[0]->children[1]->kind, BoolKind::kNot);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseRuleProgram("").ok());
  EXPECT_FALSE(ParseRuleProgram("rule : if x then match").ok());
  EXPECT_FALSE(ParseRuleProgram("rule r if x then match").ok());
  EXPECT_FALSE(ParseRuleProgram("rule r: if then match").ok());
  EXPECT_FALSE(ParseRuleProgram("rule r: if f(x then match").ok());
  EXPECT_FALSE(
      ParseRuleProgram("rule r: if r1.ssn == r2.ssn then nomatch").ok());
  EXPECT_FALSE(ParseRuleProgram("rule r: if r1. == r2.x then match").ok());
}

// --- Compilation and evaluation. ---

Record Employee(const std::string& ssn, const std::string& first,
                const std::string& last, const std::string& address) {
  Record r;
  r.set_field(employee::kSsn, ssn);
  r.set_field(employee::kFirstName, first);
  r.set_field(employee::kInitial, "");
  r.set_field(employee::kLastName, last);
  r.set_field(employee::kAddress, address);
  r.set_field(employee::kApartment, "");
  r.set_field(employee::kCity, "NEW YORK");
  r.set_field(employee::kState, "NY");
  r.set_field(employee::kZip, "10027");
  return r;
}

TEST(RuleProgramTest, CompileResolvesFields) {
  auto program = RuleProgram::Compile(
      "rule r: if r1.ssn == r2.ssn then match", employee::MakeSchema());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->num_rules(), 1u);
  EXPECT_EQ(program->rule_name(0), "r");
}

TEST(RuleProgramTest, CompileErrors) {
  Schema schema = employee::MakeSchema();
  // Unknown field.
  EXPECT_FALSE(
      RuleProgram::Compile("rule r: if r1.nope == r2.ssn then match",
                           schema)
          .ok());
  // Unknown function.
  EXPECT_FALSE(
      RuleProgram::Compile("rule r: if zap(r1.ssn) then match", schema)
          .ok());
  // Wrong arity.
  EXPECT_FALSE(
      RuleProgram::Compile("rule r: if empty(r1.ssn, r2.ssn) then match",
                           schema)
          .ok());
  // Type mismatch in comparison.
  EXPECT_FALSE(
      RuleProgram::Compile("rule r: if r1.ssn == 5 then match", schema)
          .ok());
  // Bare non-boolean condition.
  EXPECT_FALSE(
      RuleProgram::Compile("rule r: if r1.ssn then match", schema).ok());
  // Ordering on booleans.
  EXPECT_FALSE(RuleProgram::Compile(
                   "rule r: if empty(r1.ssn) <= empty(r2.ssn) then match",
                   schema)
                   .ok());
  // Wrong argument type.
  EXPECT_FALSE(RuleProgram::Compile(
                   "rule r: if prefix(r1.ssn, r2.ssn) == r1.ssn then match",
                   schema)
                   .ok());
}

TEST(RuleProgramTest, EvaluatesSimpleEquality) {
  auto program = RuleProgram::Compile(
      "rule same-ssn: if r1.ssn == r2.ssn then match",
      employee::MakeSchema());
  ASSERT_TRUE(program.ok());
  Record a = Employee("111", "JOHN", "SMITH", "1 MAIN ST");
  Record b = Employee("111", "MARY", "JONES", "2 OAK AVE");
  Record c = Employee("222", "JOHN", "SMITH", "1 MAIN ST");
  EXPECT_TRUE(program->Matches(a, b));
  EXPECT_FALSE(program->Matches(a, c));
}

TEST(RuleProgramTest, PaperExampleRule) {
  auto program = RuleProgram::Compile(
      "rule paper: if r1.last_name == r2.last_name\n"
      "  and similarity(r1.first_name, r2.first_name) >= 0.7\n"
      "  and r1.address == r2.address then match",
      employee::MakeSchema());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Record a = Employee("1", "MICHAEL", "SMITH", "1 MAIN ST");
  Record b = Employee("2", "MICHAL", "SMITH", "1 MAIN ST");
  Record c = Employee("3", "GEORGE", "SMITH", "1 MAIN ST");
  EXPECT_TRUE(program->Matches(a, b));
  EXPECT_FALSE(program->Matches(a, c));
}

TEST(RuleProgramTest, BuiltinFunctions) {
  Schema schema = employee::MakeSchema();
  Record a = Employee("123456789", "ROBERT", "SMITH", "1 MAIN ST");
  Record b = Employee("213456789", "BOB", "SMYTH", "1 MAIN ST");

  auto check = [&](const std::string& cond, bool expected) {
    auto program = RuleProgram::Compile(
        "rule t: if " + cond + " then match", schema);
    ASSERT_TRUE(program.ok()) << program.status().ToString() << " " << cond;
    EXPECT_EQ(program->Matches(a, b), expected) << cond;
  };

  check("transposed(r1.ssn, r2.ssn)", true);
  check("same_name(r1.first_name, r2.first_name)", true);
  check("sounds_like(r1.last_name, r2.last_name)", true);
  check("soundex(r1.last_name) == soundex(r2.last_name)", true);
  check("nickname(r2.first_name) == \"ROBERT\"", true);
  check("empty(r1.apartment)", true);
  check("not empty(r1.ssn)", true);
  check("length(r1.ssn) == 9", true);
  check("prefix(r1.last_name, 2) == \"SM\"", true);
  check("digits(r1.address) == \"1\"", true);
  check("street_number(r1.address) == street_number(r2.address)", true);
  check("edit_distance(r1.ssn, r2.ssn) == 2", true);
  check("damerau(r1.ssn, r2.ssn) == 1", true);
  check("initial_match(r1.first_name, r2.first_name)", false);
  check("hyphen_extended(r1.last_name, r2.last_name)", false);
  check("keyboard_similarity(r1.last_name, r2.last_name) >= 0.8", true);
  // NYSIIS keeps Y as a consonant: SMITH -> SNAT, SMYTH -> SNYT.
  check("nysiis(r1.last_name) == nysiis(r2.last_name)", false);
}

TEST(RuleProgramTest, RuleFireCountsTrackFirstMatch) {
  auto program = RuleProgram::Compile(
      "rule a: if r1.ssn == r2.ssn then match\n"
      "rule b: if r1.last_name == r2.last_name then match",
      employee::MakeSchema());
  ASSERT_TRUE(program.ok());
  Record x = Employee("1", "A", "SMITH", "S");
  Record y = Employee("1", "B", "SMITH", "S");  // Both rules would fire.
  Record z = Employee("2", "C", "SMITH", "S");  // Only rule b.
  EXPECT_EQ(program->MatchingRule(x, y), 0);
  EXPECT_EQ(program->MatchingRule(x, z), 1);
  EXPECT_EQ(program->rule_fire_counts()[0], 1u);
  EXPECT_EQ(program->rule_fire_counts()[1], 1u);
  EXPECT_EQ(program->comparison_count(), 2u);
}

TEST(RuleProgramTest, CopyResetsCounters) {
  auto program = RuleProgram::Compile(
      "rule a: if r1.ssn == r2.ssn then match", employee::MakeSchema());
  ASSERT_TRUE(program.ok());
  Record x = Employee("1", "A", "S", "S");
  program->Matches(x, x);
  RuleProgram copy(*program);
  EXPECT_EQ(copy.comparison_count(), 0u);
  EXPECT_TRUE(copy.Matches(x, x));
  EXPECT_EQ(copy.comparison_count(), 1u);
  EXPECT_EQ(program->comparison_count(), 1u);
}

// --- EmployeeTheory unit behaviour. ---

class EmployeeTheoryTest : public ::testing::Test {
 protected:
  EmployeeTheory theory_;
};

TEST_F(EmployeeTheoryTest, IdenticalRecordsMatchRuleZero) {
  Record a = Employee("123456789", "JOHN", "SMITH", "1 MAIN ST");
  EXPECT_EQ(theory_.MatchingRule(a, a), 0);
}

TEST_F(EmployeeTheoryTest, PaperExampleRuleFires) {
  // Same last name, first differs slightly, same address.
  Record a = Employee("123456789", "MICHAEL", "SMITH", "1 MAIN ST");
  Record b = Employee("987654321", "MICHAL", "SMITH", "1 MAIN ST");
  int rule = theory_.MatchingRule(a, b);
  ASSERT_GE(rule, 0);
  EXPECT_EQ(EmployeeTheory::RuleName(rule), "paper-example-rule");
}

TEST_F(EmployeeTheoryTest, SsnTranspositionWithNames) {
  Record a = Employee("193456782", "JOHN", "SMITH", "1 MAIN ST");
  Record b = Employee("913456782", "JOHN", "SMITH", "2 ELM ST");
  EXPECT_TRUE(theory_.Matches(a, b));  // ssn close + names similar.
}

TEST_F(EmployeeTheoryTest, NicknameWithAddress) {
  Record a = Employee("111111111", "ROBERT", "JONES", "9 PINE RD");
  Record b = Employee("222222222", "BOB", "JONES", "9 PINE RD");
  EXPECT_TRUE(theory_.Matches(a, b));
}

TEST_F(EmployeeTheoryTest, LastNameChangedMarriage) {
  Record a = Employee("111111111", "MARY", "SMITH", "9 PINE RD");
  Record b = Employee("222222222", "MARY", "JOHNSON", "9 PINE RD");
  a.set_field(employee::kApartment, "APT 4");
  b.set_field(employee::kApartment, "APT 4");
  int rule = theory_.MatchingRule(a, b);
  ASSERT_GE(rule, 0);
  EXPECT_EQ(EmployeeTheory::RuleName(rule), "last-name-changed");
}

TEST_F(EmployeeTheoryTest, DifferentPeopleDoNotMatch) {
  Record a = Employee("111111111", "JOHN", "SMITH", "1 MAIN ST");
  Record b = Employee("222222222", "MARY", "JOHNSON", "7 ELM AVE");
  b.set_field(employee::kCity, "CHICAGO");
  b.set_field(employee::kState, "IL");
  b.set_field(employee::kZip, "60601");
  EXPECT_FALSE(theory_.Matches(a, b));
}

TEST_F(EmployeeTheoryTest, SameNameDifferentAddressAndSsnNoMatch) {
  // Two John Smiths in different cities with different SSNs: distinct.
  Record a = Employee("111111111", "JOHN", "SMITH", "1 MAIN ST");
  Record b = Employee("222222222", "JOHN", "SMITH", "999 OTHER RD");
  b.set_field(employee::kCity, "CHICAGO");
  b.set_field(employee::kState, "IL");
  b.set_field(employee::kZip, "60601");
  EXPECT_FALSE(theory_.Matches(a, b));
}

TEST_F(EmployeeTheoryTest, SymmetricOnConstructedPairs) {
  Record a = Employee("193456782", "ROBERT", "SMITH-JONES", "1 MAIN ST");
  Record b = Employee("913456782", "BOB", "SMITH", "1 MAIN ST");
  EXPECT_EQ(theory_.Matches(a, b), theory_.Matches(b, a));
}

TEST_F(EmployeeTheoryTest, HyphenatedSurnameExtension) {
  Record a = Employee("111111111", "ANNA", "SMITH", "3 OAK LN");
  Record b = Employee("999999999", "ANNA", "SMITH-JONES", "3 OAK LN");
  EXPECT_TRUE(theory_.Matches(a, b));
}

TEST_F(EmployeeTheoryTest, MissingFirstName) {
  Record a = Employee("111111111", "", "SMITH", "3 OAK LN");
  Record b = Employee("999999999", "ANNA", "SMITH", "3 OAK LN");
  EXPECT_TRUE(theory_.Matches(a, b));
}

TEST_F(EmployeeTheoryTest, ComparisonCounterAdvances) {
  Record a = Employee("1", "A", "B", "C");
  EmployeeTheory fresh;
  fresh.Matches(a, a);
  fresh.Matches(a, a);
  EXPECT_EQ(fresh.comparison_count(), 2u);
}

TEST_F(EmployeeTheoryTest, DistanceOptionsChangeBehaviour) {
  // A pure first-name transposition: Damerau distance 1 (sim 0.833),
  // Levenshtein 2 (sim 0.667). Equal SSNs make rule 3 the only candidate:
  // addresses and locations are made different so neither the
  // transposition-specific rules (which require address similarity) nor
  // the phonetic rule can fire.
  Record a = Employee("111111111", "CARLOS", "SMITH", "1 MAIN ST");
  Record b = Employee("111111111", "CALROS", "SMITH", "742 EVERGREEN TER");
  b.set_field(employee::kCity, "CHICAGO");
  b.set_field(employee::kState, "IL");
  b.set_field(employee::kZip, "60601");
  EmployeeTheoryOptions damerau_options;
  damerau_options.distance = EmployeeTheoryOptions::Distance::kDamerau;
  EmployeeTheoryOptions edit_options;
  edit_options.distance = EmployeeTheoryOptions::Distance::kEdit;
  EXPECT_TRUE(EmployeeTheory(damerau_options).Matches(a, b));
  EXPECT_FALSE(EmployeeTheory(edit_options).Matches(a, b));
}

TEST_F(EmployeeTheoryTest, NicknamesCanBeDisabled) {
  Record a = Employee("111111111", "ROBERT", "JONES", "9 PINE RD");
  Record b = Employee("222222222", "BOB", "JONES", "9 PINE RD");
  EmployeeTheoryOptions options;
  options.use_nicknames = false;
  // BOB vs ROBERT is far in edit distance; without the nickname table the
  // nickname rules cannot fire. The pair can still match via rules that do
  // not need first-name similarity (same address + apartment etc.), so
  // check the firing rule is not a nickname rule.
  EmployeeTheory theory(options);
  int rule = theory.MatchingRule(a, b);
  if (rule >= 0) {
    EXPECT_NE(EmployeeTheory::RuleName(rule), "ssn-nickname");
    EXPECT_NE(EmployeeTheory::RuleName(rule), "nickname-last-address");
  }
}

TEST_F(EmployeeTheoryTest, RuleNamesAreDistinct) {
  std::set<std::string_view> names;
  for (size_t i = 0; i < EmployeeTheory::kNumRules; ++i) {
    names.insert(EmployeeTheory::RuleName(i));
  }
  EXPECT_EQ(names.size(), EmployeeTheory::kNumRules);
}

// --- Theory loader. ---

TEST(TheoryLoaderTest, LoadsBuiltInTheoryAndRulesFileWithItsPolicy) {
  AnalysisReport analysis;
  auto builtin = LoadTheory("", employee::MakeSchema(), &analysis);
  ASSERT_TRUE(builtin.ok()) << builtin.status().ToString();
  EXPECT_NE(dynamic_cast<EmployeeTheory*>(builtin->factory().get()), nullptr);
  EXPECT_EQ(builtin->purge_policy.strategy_for(employee::kFirstName),
            MergeStrategy::kLongest);
  EXPECT_EQ(analysis.rule_count(), EmployeeTheory::kNumRules);

  const std::string path =
      (std::filesystem::temp_directory_path() / "mergepurge_loader.rules")
          .string();
  std::ofstream(path, std::ios::trunc)
      << "merge first_name: prefer concat_distinct\n"
         "rule same-last:\n"
         "  if r1.last_name == r2.last_name and not empty(r1.last_name)\n"
         "  then match\n";
  auto loaded = LoadTheory(path, employee::MakeSchema(), nullptr);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_rules, 1u);
  EXPECT_EQ(loaded->purge_policy.strategy_for(employee::kFirstName),
            MergeStrategy::kConcatDistinct);
  EXPECT_TRUE(loaded->factory()->Matches(
      Employee("1", "JOHN", "SMITH", "1 MAIN ST"),
      Employee("2", "JONATHAN", "SMITH", "9 OAK LN")));
  EXPECT_EQ(LoadTheory(path, employee::MakeSchema(), nullptr)
                .status()
                .message(),
            "cannot open rules file: " + path);
}

}  // namespace
}  // namespace mergepurge
