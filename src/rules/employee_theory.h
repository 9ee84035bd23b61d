// EmployeeTheory: the built-in 26-rule equational theory for employee
// records: the rule text EmployeeRulesText() compiled once per process
// (the paper recoded its OPS5 rules in C by hand, §2.3). Every instance
// shares the program and keeps its own statistics. Rules run from most to
// least specific and combine exact equality, thresholded Damerau
// similarity, nicknames, phonetic codes, transpositions, cross-field
// corroboration and a weighted whole-record score. Variants are rewrites
// of the text (bench/ablation).

#ifndef MERGEPURGE_RULES_EMPLOYEE_THEORY_H_
#define MERGEPURGE_RULES_EMPLOYEE_THEORY_H_

#include <string_view>

#include "rules/rule_program.h"

namespace mergepurge {

// The rule-language source of the built-in theory (26 rules).
std::string_view EmployeeRulesText();

class EmployeeTheory final : public RuleProgram {
 public:
  EmployeeTheory();

  // Makes fresh instances (one per worker or lease).
  static TheoryFactory Factory();
};

}  // namespace mergepurge

#endif  // MERGEPURGE_RULES_EMPLOYEE_THEORY_H_
