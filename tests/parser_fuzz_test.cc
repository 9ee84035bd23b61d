// Robustness: the lexer/parser/compiler — and the static analyzer, which
// accepts anything that parses — must return a Status / report (never
// crash, never hang) on arbitrary garbage, truncations and mutations of
// valid programs.

#include <string>

#include <gtest/gtest.h>

#include "rules/analysis/analyzer.h"
#include "rules/employee_theory.h"
#include "rules/parser.h"
#include "rules/rule_program.h"
#include "util/random.h"

namespace mergepurge {
namespace {

class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  static constexpr char kChars[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 .,:()\"<>=!#\n\t_-r1r2";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string source;
    size_t len = rng.NextBounded(200);
    for (size_t i = 0; i < len; ++i) {
      source += kChars[rng.NextBounded(sizeof(kChars) - 1)];
    }
    // Must return, with either a valid AST or an error status; whatever
    // parses must also survive the analyzer.
    auto ast = ParseRuleProgram(source);
    if (ast.ok()) AnalyzeRuleProgram(*ast);
  }
}

TEST_P(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  Rng rng(GetParam() + 1000);
  static constexpr const char* kTokens[] = {
      "rule",  "if",    "then",  "match",  "and",    "or",
      "not",   "(",     ")",     "==",     ">=",     "<",
      "r1",    "r2",    ".",     "ssn",    "city",   "similarity",
      "empty", "0.8",   "\"x\"", ",",      ":",      "name",
      "merge", "prefer", "longest",
  };
  for (int trial = 0; trial < 2000; ++trial) {
    std::string source;
    size_t len = rng.NextBounded(60);
    for (size_t i = 0; i < len; ++i) {
      source += kTokens[rng.NextBounded(27)];
      source += ' ';
    }
    auto ast = ParseRuleProgram(source);
    if (ast.ok()) AnalyzeRuleProgram(*ast);
  }
}

TEST_P(ParserFuzzTest, TruncationsOfValidProgramNeverCrash) {
  std::string valid(EmployeeRulesText());
  Rng rng(GetParam() + 2000);
  Schema schema = employee::MakeSchema();
  for (int trial = 0; trial < 150; ++trial) {
    size_t cut = rng.NextBounded(valid.size());
    std::string truncated = valid.substr(0, cut);
    auto program = RuleProgram::Compile(truncated, schema);
    (void)program;
    AnalyzeRuleSource(truncated);
  }
}

TEST_P(ParserFuzzTest, SingleCharMutationsNeverCrash) {
  std::string valid(EmployeeRulesText());
  Rng rng(GetParam() + 3000);
  Schema schema = employee::MakeSchema();
  static constexpr char kChars[] = "a9(.\"=x ";
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = valid;
    mutated[rng.NextBounded(mutated.size())] =
        kChars[rng.NextBounded(sizeof(kChars) - 1)];
    AnalyzeRuleSource(mutated);
    auto program = RuleProgram::Compile(mutated, schema);
    if (program.ok()) {
      // A surviving program must still be evaluable.
      Record r;
      r.set_field(employee::kSsn, "123456789");
      program->Matches(r, r);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace mergepurge
