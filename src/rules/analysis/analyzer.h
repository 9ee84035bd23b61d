// Static analyzer for rule-language theories ("rulecheck"). Operates on
// the parsed AST (no schema needed), so it can vet a theory before any
// data exists. Every lint is cataloged in docs/rule_lints.md; the ids it
// can emit:
//
//   parse-error                error    source does not parse
//   blank-merge                error    rule fires on two all-blank records
//   unknown-merge-strategy     error    merge directive names no strategy
//   asymmetric-rule            warning  condition not invariant under r1/r2
//   unsatisfiable-condition    warning  comparison can never hold
//   tautological-condition     warning  comparison always holds
//   constant-comparison        warning  condition ignores both records
//   duplicate-rule             warning  same condition as an earlier rule
//   subsumed-rule              warning  implied by an earlier rule
//   duplicate-rule-name        warning  rule name reused
//   duplicate-merge-directive  warning  field merged twice
//   window-coverage            warning  no sort pass windows the rule's pairs
//
// Findings can be silenced in the source with a comment on the line(s)
// directly above the construct:
//
//   # rulecheck: allow(blank-merge)
//   rule identical-records: ...
//
// The analyzer is conservative: everything it flags as an error is a real
// property of the theory (blank-merge is decided by running the compiled
// condition on two blank records), while warnings use normal forms that
// can miss — but never invent — equivalences.

#ifndef MERGEPURGE_RULES_ANALYSIS_ANALYZER_H_
#define MERGEPURGE_RULES_ANALYSIS_ANALYZER_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "rules/analysis/diagnostics.h"
#include "rules/ast.h"

namespace mergepurge {

// One sorted-neighborhood pass, reduced to the record fields its sort key
// reads (principal field first). Input to the window-coverage lint: a rule
// whose condition ties none of any pass's fields matches pairs that no
// pass sorts near each other.
struct PassKeyFields {
  std::string name;                 // e.g. "last-name"
  std::vector<std::string> fields;  // field names, key order
};

struct AnalyzerOptions {
  // Source line -> lint ids allowed at that line, usually built by
  // ExtractSuppressions. A finding is suppressed when its own line or its
  // owning rule/directive's line allows its id.
  std::map<int, std::vector<std::string>> allows;

  // The sort passes the theory will run under, for the window-coverage
  // lint. Empty (the default) disables that lint: without knowing the
  // keys, coverage cannot be judged.
  std::vector<PassKeyFields> passes;
};

// Scans raw source for `# rulecheck: allow(id[, id...])` comments. Each
// comment attaches to the next non-blank, non-comment line; consecutive
// allow comments accumulate onto that same line.
std::map<int, std::vector<std::string>> ExtractSuppressions(
    std::string_view source);

// Runs every lint over a parsed program.
AnalysisReport AnalyzeRuleProgram(const RuleProgramAst& ast,
                                  const AnalyzerOptions& options = {});

// Parses and analyzes `source`, honoring its suppression comments. A parse
// failure yields a report with a single parse-error diagnostic instead of
// a Status, so callers always have something to render. `options` carries
// e.g. passes for window-coverage; its `allows` are replaced by the
// suppressions extracted from `source`.
AnalysisReport AnalyzeRuleSource(std::string_view source,
                                 AnalyzerOptions options = {});

}  // namespace mergepurge

#endif  // MERGEPURGE_RULES_ANALYSIS_ANALYZER_H_
