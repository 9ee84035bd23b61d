// RuleProgram: compiles rule-language source against a schema into an
// executable equational theory (the analogue of the paper's OPS5 program).
//
// Compilation performs name resolution (field refs against the schema,
// function names against the built-in table) and full static type checking,
// so evaluation is exception-free and cannot fail at run time. The
// built-in functions are tabled in rules/builtins.h and documented in
// docs/rule_language.md.

#ifndef MERGEPURGE_RULES_RULE_PROGRAM_H_
#define MERGEPURGE_RULES_RULE_PROGRAM_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/purge_policy.h"
#include "record/schema.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

class AnalysisReport;

namespace rules_internal {
struct CompiledProgram;
}  // namespace rules_internal

class RuleProgram final : public EquationalTheory {
 public:
  // Parses, resolves and type-checks `source` against `schema`. With a
  // non-null `analysis` it also runs the static analyzer
  // (rules/analysis/) over the parsed program, honoring the source's
  // `# rulecheck: allow(...)` comments. Lint findings never fail
  // compilation — `analysis` is filled even on a compile error after a
  // successful parse, and callers decide how strict to be (the tools'
  // --rules-check preflight treats lint errors as fatal).
  static Result<RuleProgram> Compile(std::string_view source,
                                     const Schema& schema,
                                     AnalysisReport* analysis = nullptr);

  // Copies share the immutable compiled program; each copy has its own
  // statistics counters (use one copy per worker thread).
  RuleProgram(const RuleProgram& other);
  RuleProgram& operator=(const RuleProgram& other);
  ~RuleProgram() override;

  bool Matches(const Record& a, const Record& b) const override;
  uint64_t comparison_count() const override { return comparison_count_; }

  // Index of the first rule whose conditions all hold, or -1. Also updates
  // the per-rule fire counters.
  int MatchingRule(const Record& a, const Record& b) const;

  size_t num_rules() const;
  const std::string& rule_name(size_t index) const;

  // How many times each rule has fired (same indexing as rule_name).
  const std::vector<uint64_t>& rule_fire_counts() const {
    return rule_fire_counts_;
  }

  // Adds rule firings since the previous flush to the global registry as
  // rules.fired.<rule-name>. rule_fire_counts() is cumulative and is NOT
  // reset — a high-water mirror tracks what was already flushed.
  void FlushMetrics() const override;

  // The purge policy assembled from the program's `merge <field>: prefer
  // <strategy>` directives (fields without a directive keep the default).
  const PurgePolicy& purge_policy() const;

 private:
  explicit RuleProgram(
      std::shared_ptr<const rules_internal::CompiledProgram> program);

  std::shared_ptr<const rules_internal::CompiledProgram> program_;
  mutable uint64_t comparison_count_ = 0;
  mutable std::vector<uint64_t> rule_fire_counts_;
  // Per-rule counts already flushed to the registry (see FlushMetrics).
  mutable std::vector<uint64_t> flushed_fire_counts_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_RULES_RULE_PROGRAM_H_
