// RuleProgram: compiles rule-language source (docs/rule_language.md)
// against a schema into an executable equational theory, the analogue of
// the paper's OPS5 program recoded in C (§2.3); the built-in employee
// theory is one. Compilation resolves names and type-checks every
// expression (so evaluation cannot fail), then lowers the rules to branch
// code (see rule_program.cc) that compares rows: records loaded once into
// a block, with their per-record values computed once per row.

#ifndef MERGEPURGE_RULES_RULE_PROGRAM_H_
#define MERGEPURGE_RULES_RULE_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/purge_policy.h"
#include "record/schema.h"
#include "rules/ast.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

class AnalysisReport;

namespace rules_internal {
struct CompiledProgram;
struct Insn;
}  // namespace rules_internal

class RuleProgram : public EquationalTheory {
 public:
  // Parses, resolves, type-checks and lowers `source` against `schema`.
  // With a non-null `analysis` it also runs the static analyzer
  // (rules/analysis/) over the parsed program, honoring the source's
  // `# rulecheck: allow(...)` comments. Lint findings never fail
  // compilation — `analysis` is filled even on a compile error after a
  // successful parse, and callers decide how strict to be (the tools'
  // --rules-check preflight treats lint errors as fatal).
  static Result<RuleProgram> Compile(std::string_view source,
                                     const Schema& schema,
                                     AnalysisReport* analysis = nullptr);

  // Compile() for an already parsed program, without the analyzer.
  static Result<RuleProgram> FromAst(const RuleProgramAst& ast,
                                     const Schema& schema);

  // Copies share the immutable compiled program; each copy has its own
  // block, evaluation state and statistics (use one copy per worker
  // thread).
  RuleProgram(const RuleProgram& other);
  RuleProgram& operator=(const RuleProgram& other) = delete;
  ~RuleProgram() override;

  // Copies the fields the program reads into rows 0..n-1 of the block,
  // with their presence masks; slots are computed on first use.
  void LoadRows(const Record* const* records, size_t n) const override;
  bool MatchesRows(size_t i, size_t j) const override;

  // Loads a and b as rows 0 and 1, replacing the block, and compares them.
  bool Matches(const Record& a, const Record& b) const override;
  uint64_t comparison_count() const override { return comparison_count_; }
  void AddComparisons(uint64_t n) const override { comparison_count_ += n; }

  // Index of the first rule whose condition holds for rows i and j of the
  // block, or -1. Also counts the firing.
  int MatchingRuleRows(size_t i, size_t j) const;

  // MatchingRuleRows(0, 1) after loading a and b as Matches does.
  int MatchingRule(const Record& a, const Record& b) const;

  size_t num_rules() const;
  const std::string& rule_name(size_t index) const;

  // Firings per rule so far (same indexing as rule_name).
  const std::vector<uint64_t>& rule_fire_counts() const {
    return fire_counts_;
  }

  // Adds the statistics gathered since the previous flush to the global
  // registry: rule firings (rules.fired.<rule-name>), typo-similarity
  // evaluations on non-empty strings (rules.distance_calls) and the
  // thresholded ones a bounded distance ruled out early
  // (rules.early_exits). rule_fire_counts() is not reset.
  void FlushMetrics() const override;

  // A copy (see the copy constructor): shares the compiled program.
  std::unique_ptr<EquationalTheory> Clone() const override;

  // The purge policy assembled from the program's `merge <field>: prefer
  // <strategy>` directives (fields without a directive keep the default).
  const PurgePolicy& purge_policy() const;

 private:
  explicit RuleProgram(
      std::shared_ptr<const rules_internal::CompiledProgram> program);

  // A comparison of number or boolean nodes, the one leaf test the
  // dispatch loop in MatchingRule does not hold inline.
  bool ValueCompare(const rules_internal::Insn& insn) const;
  bool SimilarityAtLeast(const rules_internal::Insn& insn) const;
  // A string operand of the compared pair (rules_internal::Operand): a
  // field inline, anything else through ComputedArg.
  std::string_view Arg(int operand) const;
  std::string_view ComputedArg(int operand) const;
  // Slot `slot` of row `row`, computed on first use.
  std::string_view SlotValue(size_t slot, size_t row) const;
  int Bounded(const rules_internal::Insn& insn, std::string_view x,
              std::string_view y, int max_distance,
              bool transpositions) const;
  std::string_view StringValue(int node) const;
  // A literal, or a string call over both records computed per pair.
  std::string_view NodeString(int node) const;
  double NumberValue(int node) const;

  std::shared_ptr<const rules_internal::CompiledProgram> program_;
  size_t num_fields_;
  size_t num_masks_;
  size_t num_slots_;

  // The block: the rows' fields, copied into bytes_ row by row. Row r's
  // field f is field_views_[r * num_fields_ + f]; its masks and slots
  // start at row_masks_[r * num_masks_] and slot_values_[r * num_slots_],
  // a slot viewed in slot_views_ once computed (a null view before).
  mutable std::string bytes_;
  mutable std::vector<std::string_view> field_views_;
  mutable std::vector<uint64_t> row_masks_;
  mutable std::vector<std::string> slot_values_;
  mutable std::vector<std::string_view> slot_views_;

  // Evaluation state: the compared rows (r1's, r2's) and where their
  // fields and masks start, the comparison number, and memo entries
  // (stamp << 1 | value) valid while their stamp is current.
  mutable size_t rows_[2] = {0, 0};
  mutable const std::string_view* fields_[2] = {nullptr, nullptr};
  mutable const uint64_t* masks_[2] = {nullptr, nullptr};
  mutable uint64_t stamp_ = 0;
  mutable std::vector<uint64_t> memo_;
  // Buffers for string calls over both records, one per call site.
  mutable std::vector<std::string> buffers_;

  // Statistics; see FlushMetrics().
  mutable uint64_t comparison_count_ = 0;
  mutable std::vector<uint64_t> fire_counts_;
  mutable std::vector<uint64_t> flushed_fire_counts_;
  mutable uint64_t distance_calls_ = 0;
  mutable uint64_t early_exits_ = 0;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_RULES_RULE_PROGRAM_H_
