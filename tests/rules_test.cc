#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "rules/analysis/diagnostics.h"
#include "rules/employee_theory.h"
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

TEST(LexerTest, ArithmeticOperators) {
  auto tokens = Tokenize("(a + b) * 2 / c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kArith);
  EXPECT_EQ((*tokens)[2].text, "+");
  EXPECT_EQ((*tokens)[5].text, "*");
  EXPECT_EQ((*tokens)[7].text, "/");
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

TEST(ParserTest, ArithmeticPrecedenceAndGrouping) {
  auto ast = ParseRuleProgram(
      "rule r: if (length(r1.ssn) + 1) / 2 + 3 * length(r2.ssn) >= 5\n"
      "  and (empty(r1.zip) or empty(r2.zip)) then match");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  const BoolExpr& cond = *ast->rules[0].condition;
  ASSERT_EQ(cond.kind, BoolKind::kAnd);
  const BoolExpr& score = *cond.children[0];
  ASSERT_EQ(score.kind, BoolKind::kCompare);
  // ((length + 1) / 2) + (3 * length): + binds loosest, left to right.
  const Expr& sum = *score.lhs;
  ASSERT_EQ(sum.kind, ExprKind::kArith);
  EXPECT_EQ(sum.arith_op, ArithOp::kAdd);
  EXPECT_EQ(sum.args[0]->arith_op, ArithOp::kDiv);
  EXPECT_EQ(sum.args[0]->args[0]->arith_op, ArithOp::kAdd);
  EXPECT_EQ(sum.args[1]->arith_op, ArithOp::kMul);
  EXPECT_EQ(cond.children[1]->kind, BoolKind::kOr);
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
  EXPECT_FALSE(ParseRuleProgram("rule r: if 1 + >= 2 then match").ok());
  EXPECT_FALSE(ParseRuleProgram("rule r: if (1 + 2 >= 2 then match").ok());
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
  // Arithmetic on strings.
  EXPECT_FALSE(
      RuleProgram::Compile("rule r: if r1.ssn + 1 >= 2 then match", schema)
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
  // The SSNs differ by one transposition: one Damerau edit, two
  // Levenshtein edits.
  check("similarity(r1.ssn, r2.ssn) >= 0.8", true);
  check("edit_similarity(r1.ssn, r2.ssn) >= 0.8", false);
  // Arithmetic; fields present on either side weigh 1, blank ones 0, and
  // x / 0 is 0.
  check("length(r1.ssn) + length(r2.ssn) == 18", true);
  check("1 + 2 * 3 == 7 and (1 + 2) * 3 == 9 and 12 / 4 / 3 == 1", true);
  check("5 * similarity(r1.last_name, r2.last_name) == 4", true);
  check("either_present(r1.ssn, r2.ssn) == 1", true);
  check("either_present(r1.apartment, r2.apartment) == 0", true);
  check("length(r1.ssn) / length(r1.apartment) == 0", true);
}

TEST(RuleProgramTest, FlushMetricsReportsAndZeroesStatistics) {
  auto program = RuleProgram::Compile(
      "rule similar-last:\n"
      "  if similarity(r1.last_name, r2.last_name) >= 0.8 then match",
      employee::MakeSchema());
  ASSERT_TRUE(program.ok());
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* fired = registry.GetCounter("rules.fired.similar-last");
  Counter* calls = registry.GetCounter("rules.distance_calls");
  Counter* exits = registry.GetCounter("rules.early_exits");
  const uint64_t fired_before = fired->Value();
  const uint64_t calls_before = calls->Value();
  const uint64_t exits_before = exits->Value();

  Record smith = Employee("1", "A", "SMITH", "S");
  EXPECT_TRUE(program->Matches(smith, Employee("2", "B", "SMYTH", "S")));
  // Too far apart in length: decided without computing a distance.
  EXPECT_FALSE(program->Matches(smith, Employee("3", "C", "SMITHSONIAN", "S")));
  // Two blank names need no distance at all (similarity 1.0).
  EXPECT_TRUE(program->Matches(Employee("4", "D", "", "S"),
                               Employee("5", "E", "", "S")));
  program->FlushMetrics();
  EXPECT_EQ(fired->Value() - fired_before, 2u);
  EXPECT_EQ(calls->Value() - calls_before, 2u);
  EXPECT_EQ(exits->Value() - exits_before, 1u);
  EXPECT_EQ(program->rule_fire_counts()[0], 2u);
  program->FlushMetrics();
  EXPECT_EQ(fired->Value() - fired_before, 2u);
  EXPECT_EQ(calls->Value() - calls_before, 2u);
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

// --- Theory loader. ---

TEST(TheoryLoaderTest, LoadsBuiltInTheoryAndRulesFileWithItsPolicy) {
  AnalysisReport analysis;
  auto builtin = LoadTheory("", employee::MakeSchema(), &analysis);
  ASSERT_TRUE(builtin.ok()) << builtin.status().ToString();
  EXPECT_NE(dynamic_cast<EmployeeTheory*>(builtin->factory().get()), nullptr);
  EXPECT_EQ(builtin->num_rules, 26u);
  EXPECT_EQ(builtin->purge_policy.strategy_for(employee::kFirstName),
            MergeStrategy::kLongest);
  EXPECT_EQ(analysis.rule_count(), 26u);

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
