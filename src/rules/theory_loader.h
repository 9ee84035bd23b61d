// LoadTheory: the one path from a --rules argument to a runnable theory,
// used by every tool with a --rules flag. A rules file is read once and
// its `merge <field>: prefer <strategy>` directives travel with its rules.

#ifndef MERGEPURGE_RULES_THEORY_LOADER_H_
#define MERGEPURGE_RULES_THEORY_LOADER_H_

#include <string>

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
  // Rules compiled from the file; 0 for the built-in theory.
  size_t num_rules = 0;
};

// Reads the rule-language file at `rules_path` once and compiles it
// against `schema`; an empty path selects the built-in EmployeeTheory.
// When `analysis` is non-null the source is also linted (for the built-in
// theory, its rule-language mirror EmployeeRulesText()); lint findings
// never fail the load, callers decide how strict to be. Errors are
// "cannot open rules file: PATH" and "PATH: <compile error>".
Result<LoadedTheory> LoadTheory(const std::string& rules_path,
                                const Schema& schema,
                                AnalysisReport* analysis);

}  // namespace mergepurge

#endif  // MERGEPURGE_RULES_THEORY_LOADER_H_
