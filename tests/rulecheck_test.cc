// Tests for the rule-theory static analyzer (rules/analysis/): one golden
// seeded-defect program per lint (asserting the lint id AND the reported
// source line), suppression comments, report rendering, and property tests
// tying the analyzer's verdicts to the compiled program's actual behavior.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "record/record.h"
#include "rules/analysis/analyzer.h"
#include "rules/ast_util.h"
#include "rules/employee_theory.h"
#include "rules/parser.h"
#include "rules/rule_program.h"
#include "util/random.h"
#include "util/string_util.h"

namespace mergepurge {
namespace {

// Finds the first diagnostic with `id`; fails the test when absent.
const Diagnostic* FindDiagnostic(const AnalysisReport& report,
                                 std::string_view id) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.id == id) return &d;
  }
  return nullptr;
}

size_t CountDiagnostics(const AnalysisReport& report, std::string_view id) {
  size_t n = 0;
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.id == id) ++n;
  }
  return n;
}

// --- One golden seeded-defect program per lint. -----------------------------

TEST(RulecheckLints, BlankMergeFlagsRuleSatisfiedByEmptyRecords) {
  const std::string source =
      "rule guarded:\n"                                            // line 1
      "  if r1.ssn == r2.ssn and not empty(r1.ssn)\n"              // line 2
      "  then match\n"                                             // line 3
      "\n"                                                         // line 4
      "rule blank-trap:\n"                                         // line 5
      "  if similarity(r1.city, r2.city) >= 0.9\n"                 // line 6
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  const Diagnostic* d = FindDiagnostic(report, "blank-merge");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::kError);
  EXPECT_EQ(d->line, 5);
  EXPECT_EQ(d->rule_name, "blank-trap");
  EXPECT_EQ(CountDiagnostics(report, "blank-merge"), 1u)
      << "the guarded rule must not be flagged";
  EXPECT_TRUE(report.HasErrors());
}

TEST(RulecheckLints, AsymmetricRuleFlagsOneSidedGuard) {
  const std::string source =
      "rule one-sided:\n"                                          // line 1
      "  if similarity(r1.last_name, r2.last_name) >= 0.8\n"
      "  and not empty(r1.last_name)\n"
      "  then match\n"
      "rule one-sided-weight:\n"
      "  if 2 * length(r1.ssn) > length(r2.ssn)\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  const Diagnostic* d = FindDiagnostic(report, "asymmetric-rule");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::kWarning);
  EXPECT_EQ(d->line, 1);
  EXPECT_EQ(d->rule_name, "one-sided");
  EXPECT_EQ(CountDiagnostics(report, "asymmetric-rule"), 2u);
}

// The ubiquitous `r1.f == r2.f and not empty(r1.f)` idiom IS symmetric
// (the equality makes the one-sided guard congruent to its mirror) and
// must not be flagged.
TEST(RulecheckLints, EqualityGuardedRuleIsSymmetric) {
  const std::string source =
      "rule guarded:\n"
      "  if r1.ssn == r2.ssn and not empty(r1.ssn)\n"
      "  and similarity(r1.city, r2.city) >= 0.5\n"
      "  then match\n"
      "rule expr-mirror:\n"
      "  if digits(r1.zip) == digits(r2.zip)\n"
      "  and not empty(digits(r1.zip))\n"
      "  then match\n"
      // + and * commute exactly, so swapping r1 and r2 across them keeps
      // a condition symmetric.
      "rule summed:\n"
      "  if length(r1.ssn) + length(r2.ssn) >= 18\n"
      "  then match\n"
      "rule weighted:\n"
      "  if not empty(r1.zip) and not empty(r2.zip)\n"
      "  and (either_present(r1.zip, r2.zip) * similarity(r2.zip, r1.zip))\n"
      "      / either_present(r2.zip, r1.zip) >= 0.9\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  EXPECT_EQ(CountDiagnostics(report, "asymmetric-rule"), 0u);
}

TEST(RulecheckLints, UnsatisfiableConditionFlagsThresholdAboveRange) {
  const std::string source =
      "rule dead-threshold:\n"                                     // line 1
      "  if r1.ssn == r2.ssn and not empty(r1.ssn)\n"              // line 2
      "  and similarity(r1.city, r2.city) > 1.5\n"                 // line 3
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  const Diagnostic* d = FindDiagnostic(report, "unsatisfiable-condition");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::kWarning);
  EXPECT_EQ(d->line, 3);
  EXPECT_EQ(d->rule_name, "dead-threshold");
}

TEST(RulecheckLints, TautologicalConditionFlagsVacuousThreshold) {
  const std::string source =
      "rule vacuous:\n"                                            // line 1
      "  if r1.ssn == r2.ssn and not empty(r1.ssn)\n"              // line 2
      "  and edit_distance(r1.city, r2.city) >= 0\n"               // line 3
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  const Diagnostic* d = FindDiagnostic(report, "tautological-condition");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 3);
  EXPECT_EQ(d->rule_name, "vacuous");
}

TEST(RulecheckLints, SelfComparisonIsTautological) {
  const std::string source =
      "rule self-compare:\n"                                       // line 1
      "  if r1.ssn == r1.ssn\n"                                    // line 2
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  const Diagnostic* d = FindDiagnostic(report, "tautological-condition");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 2);
  // `r1.f == r1.f` also holds on blank records, so the rule is a blank
  // trap too.
  EXPECT_NE(FindDiagnostic(report, "blank-merge"), nullptr);
}

TEST(RulecheckLints, ArithmeticRangesFlagImpossibleAndVacuousScores) {
  const std::string source =
      "rule dead-score:\n"                                          // 1
      "  if r1.ssn == r2.ssn and not empty(r1.ssn)\n"               // 2
      "  and 2 * similarity(r1.city, r2.city) > 2\n"                // 3
      "  then match\n"                                              // 4
      "rule vacuous-score:\n"                                       // 5
      "  if r1.ssn == r2.ssn and not empty(r1.ssn)\n"               // 6
      "  and similarity(r1.city, r2.city) + length(r1.zip) >= 0\n"  // 7
      "  then match\n"                                              // 8
      "rule open-score:\n"                                          // 9
      "  if r1.ssn == r2.ssn and not empty(r1.ssn)\n"               // 10
      "  and similarity(r1.city, r2.city)\n"                        // 11
      "      / either_present(r1.zip, r2.zip) >= 0.5\n"             // 12
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  const Diagnostic* dead = FindDiagnostic(report, "unsatisfiable-condition");
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->line, 3);
  EXPECT_EQ(dead->rule_name, "dead-score");
  const Diagnostic* vacuous = FindDiagnostic(report, "tautological-condition");
  ASSERT_NE(vacuous, nullptr);
  EXPECT_EQ(vacuous->line, 7);
  EXPECT_EQ(vacuous->rule_name, "vacuous-score");
  // A divisor that can be 0 leaves the quotient's range open: no finding.
  EXPECT_EQ(CountDiagnostics(report, "unsatisfiable-condition"), 1u);
  EXPECT_EQ(CountDiagnostics(report, "tautological-condition"), 1u);
}

TEST(RulecheckLints, BlankMergeSeesThroughArithmetic) {
  const std::string source =
      "rule weighted:\n"                                            // 1
      "  if (2 * either_present(r1.city, r2.city)\n"                // 2
      "      * similarity(r1.city, r2.city))\n"                     // 3
      "     / (2 * either_present(r1.city, r2.city)) >= 0.9\n"      // 4
      "  then match\n"                                              // 5
      "rule scaled-trap:\n"                                         // 6
      "  if 2 * similarity(r1.city, r2.city) >= 1.8\n"              // 7
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  // Two blank cities weigh 0, and 0 / 0 is 0: the weighted rule is safe.
  ASSERT_EQ(CountDiagnostics(report, "blank-merge"), 1u);
  EXPECT_EQ(FindDiagnostic(report, "blank-merge")->line, 6);
}

TEST(RulecheckLints, AggregateSimilarityIsFalseOnBlankRecords) {
  Result<RuleProgramAst> ast = ParseRuleProgram(EmployeeRulesText());
  ASSERT_TRUE(ast.ok());
  ASSERT_EQ(ast->rules.back().name, "aggregate-similarity");
  ast->rules.erase(ast->rules.begin(), ast->rules.end() - 1);
  Result<RuleProgram> aggregate =
      RuleProgram::FromAst(*ast, employee::MakeSchema());
  ASSERT_TRUE(aggregate.ok());
  const Record blank;
  EXPECT_FALSE(aggregate->Matches(blank, blank));
}

TEST(RulecheckLints, ConstantComparisonFlagsRecordFreeCondition) {
  const std::string source =
      "rule constant:\n"                                           // line 1
      "  if r1.ssn == r2.ssn and not empty(r1.ssn)\n"              // line 2
      "  and length(\"abc\") == 3\n"                               // line 3
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  const Diagnostic* d = FindDiagnostic(report, "constant-comparison");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 3);
  EXPECT_NE(d->message.find("always true"), std::string::npos);
}

TEST(RulecheckLints, DuplicateRuleFlagsReorderedAndFlippedCopy) {
  const std::string source =
      "rule original:\n"                                           // line 1
      "  if r1.ssn == r2.ssn and not empty(r1.ssn)\n"
      "  and similarity(r1.city, r2.city) >= 0.8\n"
      "  then match\n"
      "\n"
      "rule sneaky-copy:\n"                                        // line 6
      "  if 0.8 <= similarity(r2.city, r1.city)\n"
      "  and not empty(r2.ssn) and r2.ssn == r1.ssn\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  const Diagnostic* d = FindDiagnostic(report, "duplicate-rule");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 6);
  EXPECT_EQ(d->rule_name, "sneaky-copy");
  EXPECT_NE(d->message.find("original"), std::string::npos);
}

TEST(RulecheckLints, SubsumedRuleFlagsStrictlyTighterThreshold) {
  const std::string source =
      "rule loose:\n"                                              // line 1
      "  if not empty(r1.city) and not empty(r2.city)\n"
      "  and similarity(r1.city, r2.city) >= 0.7\n"
      "  then match\n"
      "\n"
      "rule tight:\n"                                              // line 6
      "  if not empty(r1.city) and not empty(r2.city)\n"
      "  and similarity(r1.city, r2.city) >= 0.9\n"
      "  and r1.state == r2.state\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  const Diagnostic* d = FindDiagnostic(report, "subsumed-rule");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 6);
  EXPECT_EQ(d->rule_name, "tight");
  EXPECT_NE(d->message.find("loose"), std::string::npos);
}

TEST(RulecheckLints, LooserLaterRuleIsNotSubsumed) {
  const std::string source =
      "rule tight:\n"
      "  if not empty(r1.city) and not empty(r2.city)\n"
      "  and similarity(r1.city, r2.city) >= 0.9\n"
      "  then match\n"
      "\n"
      "rule loose:\n"
      "  if not empty(r1.city) and not empty(r2.city)\n"
      "  and similarity(r1.city, r2.city) >= 0.7\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  EXPECT_EQ(CountDiagnostics(report, "subsumed-rule"), 0u)
      << "the later rule matches MORE pairs and is load-bearing";
}

TEST(RulecheckLints, DuplicateRuleNameFlagsReusedName) {
  const std::string source =
      "rule twin:\n"                                               // line 1
      "  if r1.ssn == r2.ssn and not empty(r1.ssn)\n"
      "  then match\n"
      "rule twin:\n"                                               // line 4
      "  if r1.zip == r2.zip and not empty(r1.zip)\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  const Diagnostic* d = FindDiagnostic(report, "duplicate-rule-name");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 4);
}

TEST(RulecheckLints, DuplicateMergeDirectiveFlagsSecondDirective) {
  const std::string source =
      "rule r:\n"                                                  // line 1
      "  if r1.ssn == r2.ssn and not empty(r1.ssn)\n"
      "  then match\n"
      "merge city: prefer longest\n"                               // line 4
      "merge city: prefer non_empty_first\n";                      // line 5
  AnalysisReport report = AnalyzeRuleSource(source);
  const Diagnostic* d = FindDiagnostic(report, "duplicate-merge-directive");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 5);
}

TEST(RulecheckLints, UnknownMergeStrategyIsAnError) {
  const std::string source =
      "rule r:\n"                                                  // line 1
      "  if r1.ssn == r2.ssn and not empty(r1.ssn)\n"
      "  then match\n"
      "merge city: prefer telepathy\n";                            // line 4
  AnalysisReport report = AnalyzeRuleSource(source);
  const Diagnostic* d = FindDiagnostic(report, "unknown-merge-strategy");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::kError);
  EXPECT_EQ(d->line, 4);
  EXPECT_TRUE(report.HasErrors());
}

TEST(RulecheckLints, ParseFailureYieldsParseErrorDiagnostic) {
  AnalysisReport report = AnalyzeRuleSource("rule broken: if then match");
  const Diagnostic* d = FindDiagnostic(report, "parse-error");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::kError);
  EXPECT_TRUE(report.HasErrors());
}

// --- Suppressions. ----------------------------------------------------------

TEST(RulecheckSuppressions, AllowCommentSilencesFindingOnNextRule) {
  const std::string source =
      "# rulecheck: allow(blank-merge)\n"
      "rule intentional:\n"
      "  if similarity(r1.city, r2.city) >= 0.9\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  EXPECT_EQ(CountDiagnostics(report, "blank-merge"), 0u);
  EXPECT_EQ(report.suppressed_count(), 1u);
  EXPECT_FALSE(report.HasErrors());
}

TEST(RulecheckSuppressions, AllowCommentIsIdSpecific) {
  const std::string source =
      "# rulecheck: allow(asymmetric-rule)\n"
      "rule intentional:\n"
      "  if similarity(r1.city, r2.city) >= 0.9\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  // The comment allows a different lint: blank-merge must still fire.
  EXPECT_EQ(CountDiagnostics(report, "blank-merge"), 1u);
}

TEST(RulecheckSuppressions, ExtractSuppressionsParsesIdsAndTargetLine) {
  std::map<int, std::vector<std::string>> allows = ExtractSuppressions(
      "# rulecheck: allow(blank-merge, asymmetric-rule)\n"  // line 1
      "\n"                                                  // line 2
      "# plain comment\n"                                   // line 3
      "rule r:\n"                                           // line 4
      "  if r1.a == r2.a\n"
      "  then match\n");
  ASSERT_EQ(allows.size(), 1u);
  ASSERT_EQ(allows.count(4), 1u);
  EXPECT_EQ(allows[4],
            (std::vector<std::string>{"blank-merge", "asymmetric-rule"}));
}

// --- window-coverage: rules no sort pass can window. ------------------------

AnalyzerOptions WithPasses(std::vector<PassKeyFields> passes) {
  AnalyzerOptions options;
  options.passes = std::move(passes);
  return options;
}

TEST(RulecheckWindowCoverage, FlagsRuleTyingNoKeyedField) {
  const std::string source =
      "rule covered:\n"                                            // line 1
      "  if r1.last_name == r2.last_name\n"                        // line 2
      "  and not empty(r1.last_name) and not empty(r2.last_name)\n"
      "  then match\n"
      "\n"
      "rule uncovered:\n"                                          // line 6
      "  if r1.zip == r2.zip\n"
      "  and not empty(r1.zip) and not empty(r2.zip)\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(
      source,
      WithPasses({{"last-name", {"last_name", "first_name", "ssn"}}}));
  const Diagnostic* d = FindDiagnostic(report, "window-coverage");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::kWarning);
  EXPECT_EQ(d->line, 6);
  EXPECT_EQ(d->rule_name, "uncovered");
  EXPECT_NE(d->message.find("only ties zip"), std::string::npos)
      << d->message;
  EXPECT_NE(d->message.find("last-name sorts on last_name+first_name+ssn"),
            std::string::npos)
      << d->message;
  EXPECT_EQ(CountDiagnostics(report, "window-coverage"), 1u)
      << "the covered rule must not be flagged";
}

TEST(RulecheckWindowCoverage, SimilarityTiesItsFieldAcrossAnyPass) {
  // A two-sided fuzzy read counts as a tie, and coverage by ANY pass —
  // not the first — suffices.
  const std::string source =
      "rule addr:\n"
      "  if similarity(r1.address, r2.address) >= 0.75\n"
      "  and not empty(r1.address) and not empty(r2.address)\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(
      source, WithPasses({{"last-name", {"last_name", "ssn"}},
                          {"address", {"address", "city"}}}));
  EXPECT_EQ(CountDiagnostics(report, "window-coverage"), 0u);
}

TEST(RulecheckWindowCoverage, DisjunctionNeedsEveryBranchCovered) {
  // Either branch alone may satisfy the rule, so a pair is only
  // guaranteed near when BOTH branches tie a keyed field: the or-branch
  // on zip breaks the last_name tie's coverage.
  const std::string source =
      "rule either:\n"
      "  if (r1.last_name == r2.last_name and not empty(r1.last_name)\n"
      "      and not empty(r2.last_name))\n"
      "  or (r1.zip == r2.zip and not empty(r1.zip)\n"
      "      and not empty(r2.zip))\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(
      source, WithPasses({{"last-name", {"last_name", "ssn"}}}));
  EXPECT_EQ(CountDiagnostics(report, "window-coverage"), 1u);
}

TEST(RulecheckWindowCoverage, CrossFieldAndNegatedReadsTieNothing) {
  // r1.zip vs r2.city reads both records but ties no common field, and a
  // negated equality never ties: both rules are uncoverable.
  const std::string source =
      "rule crossed:\n"                                            // line 1
      "  if r1.zip == r2.city and not empty(r1.zip)\n"
      "  then match\n"
      "\n"
      "rule negated:\n"                                            // line 5
      "  if not (r1.zip != r2.zip) and not empty(r1.zip)\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(
      source, WithPasses({{"zip", {"zip", "city"}}}));
  EXPECT_EQ(CountDiagnostics(report, "window-coverage"), 2u);
  const Diagnostic* d = FindDiagnostic(report, "window-coverage");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("ties no field"), std::string::npos)
      << d->message;
}

TEST(RulecheckWindowCoverage, NoConfiguredPassesDisablesTheLint) {
  const std::string source =
      "rule uncovered:\n"
      "  if r1.zip == r2.zip and not empty(r1.zip) and not empty(r2.zip)\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  EXPECT_EQ(CountDiagnostics(report, "window-coverage"), 0u);
}

TEST(RulecheckWindowCoverage, AllowCommentSilencesTheFinding) {
  const std::string source =
      "# rulecheck: allow(window-coverage)\n"
      "rule uncovered:\n"
      "  if r1.zip == r2.zip and not empty(r1.zip) and not empty(r2.zip)\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(
      source, WithPasses({{"last-name", {"last_name"}}}));
  EXPECT_EQ(CountDiagnostics(report, "window-coverage"), 0u);
  EXPECT_EQ(report.suppressed_count(), 1u);
}

// --- Report rendering. ------------------------------------------------------

TEST(RulecheckReport, TextRenderingContainsLocationIdAndHint) {
  AnalysisReport report;
  report.SetProgramShape(3, 1);
  report.Add({"blank-merge", LintSeverity::kError, 12, "bad-rule",
              "the message", "the hint"});
  std::string text = report.ToText("theory.rules");
  EXPECT_NE(text.find("theory.rules:12: error: [blank-merge] "
                      "rule 'bad-rule': the message"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hint: the hint"), std::string::npos);
  EXPECT_NE(text.find("1 error(s)"), std::string::npos);
}

TEST(RulecheckReport, JsonRenderingRoundTrips) {
  AnalysisReport report;
  report.SetProgramShape(2, 0);
  report.Add({"asymmetric-rule", LintSeverity::kWarning, 7, "r",
              "message", "hint"});
  report.AddSuppressed();
  Result<JsonValue> parsed =
      JsonValue::Parse(report.ToJson("t.rules").Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed->Find("outcome"), nullptr);
  EXPECT_NE(parsed->Find("counts"), nullptr);
  const JsonValue* diagnostics = parsed->Find("diagnostics");
  ASSERT_NE(diagnostics, nullptr);
  ASSERT_TRUE(diagnostics->is_array());
}

// --- The shipped theories are lint-clean. -----------------------------------

TEST(RulecheckTheories, BuiltinEmployeeTheoryIsCleanAtWerror) {
  // Passes mirror keys/standard_keys.cc, so window-coverage runs too.
  AnalysisReport report = AnalyzeRuleSource(
      EmployeeRulesText(),
      WithPasses({{"last-name", {"last_name", "first_name", "ssn"}},
                  {"first-name", {"first_name", "last_name", "ssn"}},
                  {"address", {"address", "last_name", "city"}}}));
  for (const Diagnostic& d : report.diagnostics()) {
    ADD_FAILURE() << d.id << " at line " << d.line << ": " << d.message;
  }
  EXPECT_FALSE(report.HasErrors());
  EXPECT_EQ(report.CountAtSeverity(LintSeverity::kWarning), 0u);
  // identical-records carries an explicit allow(blank-merge).
  EXPECT_EQ(report.suppressed_count(), 1u);
  EXPECT_EQ(report.rule_count(), 26u);
}

// --- Property tests: the analyzer's verdicts match the compiled program. ---

// Random-but-valid rule programs assembled from condition templates over
// the employee schema.
std::string RandomProgram(Rng* rng) {
  static constexpr const char* kFields[] = {"ssn", "first_name", "last_name",
                                            "address", "city", "zip"};
  std::string source;
  size_t num_rules = 1 + rng->NextBounded(4);
  for (size_t r = 0; r < num_rules; ++r) {
    source += StringPrintf("rule r%zu:\n  if ", r);
    size_t num_conjuncts = 1 + rng->NextBounded(2);
    for (size_t c = 0; c < num_conjuncts; ++c) {
      if (c > 0) source += "\n  and ";
      const char* field = kFields[rng->NextBounded(6)];
      switch (rng->NextBounded(6)) {
        case 0:
          source += StringPrintf("r1.%s == r2.%s and not empty(r1.%s)",
                                 field, field, field);
          break;
        case 1:
          source += StringPrintf(
              "not empty(r1.%s) and not empty(r2.%s) "
              "and similarity(r1.%s, r2.%s) >= 0.%d",
              field, field, field, field,
              static_cast<int>(5 + rng->NextBounded(5)));
          break;
        case 2:
          source += StringPrintf("sounds_like(r1.%s, r2.%s)", field, field);
          break;
        case 3:
          source += StringPrintf(
              "not empty(r1.%s) and edit_distance(r1.%s, r2.%s) <= %d",
              field, field, field,
              static_cast<int>(1 + rng->NextBounded(3)));
          break;
        case 4:
          // A weighted score: blank records score (0 + 1) / 2.
          source += StringPrintf(
              "(either_present(r1.%s, r2.%s) * similarity(r1.%s, r2.%s)"
              " + 1) / 2 >= 0.%d",
              field, field, field, field,
              static_cast<int>(3 + rng->NextBounded(5)));
          break;
        default:
          // Deliberately unguarded: a blank trap (similarity("", "") is
          // 1.0), so the blank-merge property sees both verdicts.
          source += StringPrintf("similarity(r1.%s, r2.%s) >= 0.%d", field,
                                 field,
                                 static_cast<int>(5 + rng->NextBounded(5)));
          break;
      }
    }
    source += "\n  then match\n\n";
  }
  return source;
}

Record RandomRecord(Rng* rng) {
  static constexpr const char* kNames[] = {"SMITH", "SMYTH", "JONES", ""};
  static constexpr const char* kCities[] = {"SPRINGFIELD", "SHELBYVILLE",
                                            ""};
  Record record;
  record.set_field(employee::kSsn,
                   rng->NextBounded(2) ? "123456789" : "987654321");
  record.set_field(employee::kFirstName, kNames[rng->NextBounded(4)]);
  record.set_field(employee::kLastName, kNames[rng->NextBounded(4)]);
  record.set_field(employee::kCity, kCities[rng->NextBounded(3)]);
  record.set_field(employee::kZip, rng->NextBounded(2) ? "11111" : "");
  return record;
}

// A program with no findings must compile; a program with no blank-merge
// finding must NOT match two all-blank records, and one with a blank-merge
// finding must. This pins the analyzer's constant evaluation to the real
// compiled program.
TEST(RulecheckProperties, BlankVerdictMatchesInterpreterOnBlankRecords) {
  Rng rng(20260805);
  Schema schema = employee::MakeSchema();
  const Record blank;
  for (int trial = 0; trial < 200; ++trial) {
    std::string source = RandomProgram(&rng);
    AnalysisReport report = AnalyzeRuleSource(source);
    ASSERT_EQ(FindDiagnostic(report, "parse-error"), nullptr) << source;
    Result<RuleProgram> program = RuleProgram::Compile(source, schema);
    ASSERT_TRUE(program.ok())
        << program.status().ToString() << "\n" << source;
    const bool flagged = CountDiagnostics(report, "blank-merge") > 0;
    EXPECT_EQ(program->Matches(blank, blank), flagged) << source;
  }
}

// Programs the analyzer calls symmetric must behave symmetrically.
TEST(RulecheckProperties, SymmetryVerdictMatchesInterpreter) {
  Rng rng(20260806);
  Schema schema = employee::MakeSchema();
  for (int trial = 0; trial < 100; ++trial) {
    std::string source = RandomProgram(&rng);
    AnalysisReport report = AnalyzeRuleSource(source);
    if (CountDiagnostics(report, "asymmetric-rule") > 0) continue;
    Result<RuleProgram> program = RuleProgram::Compile(source, schema);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    for (int pair = 0; pair < 20; ++pair) {
      Record a = RandomRecord(&rng);
      Record b = RandomRecord(&rng);
      EXPECT_EQ(program->Matches(a, b), program->Matches(b, a))
          << source << "\n" << a.DebugString() << "\n" << b.DebugString();
    }
  }
}

// A rule the analyzer calls subsumed must never change the match verdict:
// deleting it leaves Matches() identical on random records.
TEST(RulecheckProperties, SubsumedRulesAreBehaviorallyRedundant) {
  const std::string source =
      "rule loose:\n"
      "  if not empty(r1.city) and not empty(r2.city)\n"
      "  and similarity(r1.city, r2.city) >= 0.5\n"
      "  then match\n"
      "rule tight:\n"
      "  if not empty(r1.city) and not empty(r2.city)\n"
      "  and similarity(r1.city, r2.city) >= 0.9\n"
      "  then match\n";
  const std::string without_tight =
      "rule loose:\n"
      "  if not empty(r1.city) and not empty(r2.city)\n"
      "  and similarity(r1.city, r2.city) >= 0.5\n"
      "  then match\n";
  AnalysisReport report = AnalyzeRuleSource(source);
  ASSERT_EQ(CountDiagnostics(report, "subsumed-rule"), 1u);
  Schema schema = employee::MakeSchema();
  Result<RuleProgram> full = RuleProgram::Compile(source, schema);
  Result<RuleProgram> pruned = RuleProgram::Compile(without_tight, schema);
  ASSERT_TRUE(full.ok() && pruned.ok());
  Rng rng(7);
  for (int pair = 0; pair < 200; ++pair) {
    Record a = RandomRecord(&rng);
    Record b = RandomRecord(&rng);
    EXPECT_EQ(full->Matches(a, b), pruned->Matches(a, b))
        << a.DebugString() << " vs " << b.DebugString();
  }
}

// --- AST utility invariants used by the analyzer. ---------------------------

TEST(RulecheckAstUtil, CanonicalPrintIsOrderAndDirectionInvariant) {
  auto parse = [](const std::string& condition) {
    Result<RuleProgramAst> ast = ParseRuleProgram(
        "rule r:\n  if " + condition + "\n  then match\n");
    EXPECT_TRUE(ast.ok()) << ast.status().ToString();
    return std::move(*ast);
  };
  RuleProgramAst a =
      parse("r1.ssn == r2.ssn and similarity(r1.city, r2.city) >= 0.8");
  RuleProgramAst b =
      parse("0.8 <= similarity(r2.city, r1.city) and r2.ssn == r1.ssn");
  EXPECT_EQ(CanonicalPrint(*a.rules[0].condition),
            CanonicalPrint(*b.rules[0].condition));
  RuleProgramAst c =
      parse("r1.ssn == r2.ssn and similarity(r1.city, r2.city) >= 0.9");
  EXPECT_NE(CanonicalPrint(*a.rules[0].condition),
            CanonicalPrint(*c.rules[0].condition));
}

TEST(RulecheckAstUtil, SwapRecordIndicesIsAnInvolution) {
  Result<RuleProgramAst> ast = ParseRuleProgram(
      "rule r:\n"
      "  if similarity(r1.city, r2.city) >= 0.8 and not empty(r1.city)\n"
      "  then match\n");
  ASSERT_TRUE(ast.ok());
  const BoolExpr& condition = *ast->rules[0].condition;
  std::unique_ptr<BoolExpr> swapped = CloneBool(condition);
  SwapRecordIndices(swapped.get());
  std::unique_ptr<BoolExpr> twice = CloneBool(*swapped);
  SwapRecordIndices(twice.get());
  EXPECT_EQ(CanonicalPrint(condition), CanonicalPrint(*twice));
}

}  // namespace
}  // namespace mergepurge
