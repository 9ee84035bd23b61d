// The declarative rule language (paper §2.3): "Users of a general purpose
// merge/purge facility benefit from higher level formalisms and languages
// permitting ease of experimentation and modification."
//
// This example compiles a small custom equational theory from rule-language
// source, runs it inside the sorted-neighborhood method, and prints which
// rules fired how often. It also shows the full built-in 26-rule program.
//
//   ./build/examples/rule_dsl_demo

#include <cstdio>

#include "core/sorted_neighborhood.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"
#include "rules/rule_program.h"
#include "text/normalize.h"

using namespace mergepurge;

// A deliberately small custom theory: three rules a user might start with
// before growing a full rule base.
constexpr char kCustomRules[] = R"(
# Same SSN and similar last name.
rule ssn-and-surname:
  if r1.ssn == r2.ssn and not empty(r1.ssn)
  and similarity(r1.last_name, r2.last_name) >= 0.75
  then match

# The paper's example rule.
rule surname-address:
  if r1.last_name == r2.last_name and not empty(r1.last_name)
  and similarity(r1.first_name, r2.first_name) >= 0.8
  and r1.address == r2.address and not empty(r1.address)
  then match

# Nickname-aware: Joseph and Giuseppe at the same address.
rule nickname-address:
  if same_name(r1.first_name, r2.first_name)
  and not empty(r1.first_name) and not empty(r2.first_name)
  and similarity(r1.address, r2.address) >= 0.8
  and r1.zip == r2.zip and not empty(r1.zip)
  then match
)";

int main() {
  GeneratorConfig config;
  config.num_records = 8000;
  config.duplicate_selection_rate = 0.5;
  config.seed = 13;
  auto db = DatabaseGenerator(config).Generate();
  if (!db.ok()) {
    std::fprintf(stderr, "generate: %s\n", db.status().ToString().c_str());
    return 1;
  }
  ConditionEmployeeDataset(&db->dataset);

  auto run_program = [&](const char* label, std::string_view source) {
    Result<RuleProgram> program =
        RuleProgram::Compile(source, db->dataset.schema());
    if (!program.ok()) {
      std::fprintf(stderr, "compile: %s\n",
                   program.status().ToString().c_str());
      std::exit(1);
    }
    auto pass = SortedNeighborhood(10).Run(db->dataset, LastNameKey(),
                                           *program);
    if (!pass.ok()) {
      std::fprintf(stderr, "run: %s\n", pass.status().ToString().c_str());
      std::exit(1);
    }
    AccuracyReport report =
        EvaluatePairSet(pass->pairs, db->dataset.size(), db->truth);
    std::printf("%s: %zu rules, recall %.1f%%, false positives %.2f%%\n",
                label, program->num_rules(), report.recall_percent,
                report.false_positive_percent);

    TablePrinter table({"rule", "fired"});
    const auto& counts = program->rule_fire_counts();
    for (size_t i = 0; i < program->num_rules(); ++i) {
      if (counts[i] == 0) continue;
      table.AddRow({program->rule_name(i), FormatCount(counts[i])});
    }
    table.Print();
    std::printf("\n");
  };

  run_program("custom 3-rule theory", kCustomRules);
  run_program("built-in 26-rule employee theory", EmployeeRulesText());
  return 0;
}
