#include "rules/theory_loader.h"

#include <memory>
#include <utility>

#include "rules/analysis/analyzer.h"
#include "rules/employee_rules_text.h"
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

}  // namespace mergepurge
