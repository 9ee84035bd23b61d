// LoadTheory: the one path from a --rules argument to a runnable theory,
// used by every tool with a --rules flag. A rules file is read and compiled
// once, and its `merge <field>: prefer <strategy>` directives travel with
// its rules. Without a file, the theory is the built-in one, the compiled
// EmployeeRulesText().

#ifndef MERGEPURGE_RULES_THEORY_LOADER_H_
#define MERGEPURGE_RULES_THEORY_LOADER_H_

#include <string>
#include <string_view>

#include "core/purge_policy.h"
#include "record/schema.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

class AnalysisReport;

// How lint reports and messages name the built-in theory.
inline constexpr char kBuiltinTheoryName[] = "<builtin-employee>";

struct LoadedTheory {
  // The rules path, or kBuiltinTheoryName; names the theory in reports.
  std::string source_name = kBuiltinTheoryName;
  // One theory instance per call (per scan, worker or service lease).
  TheoryFactory factory;
  // The rules file's merge directives; the default policy (longest value
  // per field) for the built-in theory.
  PurgePolicy purge_policy;
  // Rules in the compiled program.
  size_t num_rules = 0;
};

// Reads the rule-language file at `rules_path` once and compiles it
// against `schema`; an empty path selects the built-in theory. When
// `analysis` is non-null the source (for the built-in theory,
// EmployeeRulesText()) is also linted; lint findings never fail the load,
// callers decide how strict to be. Errors are "cannot open rules file:
// PATH" and "PATH: <compile error>".
Result<LoadedTheory> LoadTheory(const std::string& rules_path,
                                const Schema& schema,
                                AnalysisReport* analysis);

// The tools' --rules and --rules-check flags: LoadTheory, plus with
// `rules_check` the lint report on stderr and an error ("--rules-check:
// theory has lint errors" + `lint_error_suffix`) when it has errors. A
// rules file's rule count goes to stderr ("compiled N rules from PATH").
Result<LoadedTheory> LoadCheckedTheory(const std::string& rules_path,
                                       const Schema& schema,
                                       bool rules_check,
                                       std::string_view lint_error_suffix);

}  // namespace mergepurge

#endif  // MERGEPURGE_RULES_THEORY_LOADER_H_
