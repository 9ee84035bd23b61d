#include "rules/theory_loader.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "rules/analysis/analyzer.h"
#include "rules/employee_theory.h"
#include "rules/rule_program.h"
#include "util/fs.h"

namespace mergepurge {

Result<LoadedTheory> LoadTheory(const std::string& rules_path,
                                const Schema& schema,
                                AnalysisReport* analysis) {
  LoadedTheory loaded;
  if (rules_path.empty()) {
    if (analysis != nullptr) {
      *analysis = AnalyzeRuleSource(EmployeeRulesText());
    }
    loaded.factory = EmployeeTheory::Factory();
    loaded.num_rules = EmployeeTheory().num_rules();
    return loaded;
  }

  Result<std::string> source = ReadFileToString(rules_path);
  if (!source.ok()) {
    return Status::IoError("cannot open rules file: " + rules_path);
  }
  Result<RuleProgram> program =
      RuleProgram::Compile(*source, schema, analysis);
  if (!program.ok()) {
    return Status::InvalidArgument(rules_path + ": " +
                                   program.status().ToString());
  }
  loaded.source_name = rules_path;
  loaded.purge_policy = program->purge_policy();
  loaded.num_rules = program->num_rules();
  // Compiled once; each instance shares the program and counts its own
  // statistics.
  auto shared = std::make_shared<const RuleProgram>(std::move(*program));
  loaded.factory = [shared]() -> std::unique_ptr<EquationalTheory> {
    return std::make_unique<RuleProgram>(*shared);
  };
  return loaded;
}

Result<LoadedTheory> LoadCheckedTheory(const std::string& rules_path,
                                       const Schema& schema,
                                       bool rules_check,
                                       std::string_view lint_error_suffix) {
  AnalysisReport analysis;
  Result<LoadedTheory> loaded =
      LoadTheory(rules_path, schema, rules_check ? &analysis : nullptr);
  if (!loaded.ok()) return loaded.status();
  if (rules_check) {
    std::fputs(analysis.ToText(loaded->source_name).c_str(), stderr);
  }
  if (analysis.HasErrors()) {
    return Status::InvalidArgument("--rules-check: theory has lint errors" +
                                   std::string(lint_error_suffix));
  }
  if (!rules_path.empty()) {
    std::fprintf(stderr, "compiled %zu rules from %s\n", loaded->num_rules,
                 loaded->source_name.c_str());
  }
  return loaded;
}

}  // namespace mergepurge
