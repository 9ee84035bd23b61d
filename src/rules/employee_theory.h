// EmployeeTheory: the 26-rule equational theory for employee records,
// hand-coded in C++ for speed — the analogue of the paper's OPS5 program
// "recoded directly in C" (§2.3, footnote 2).
//
// The rule base is ordered from most to least specific; a pair matches when
// any rule fires. Rules combine exact equality, thresholded typographical
// distance ("differ slightly"), nickname equivalence, phonetic codes,
// transposition detection and cross-field corroboration (address, city /
// state / zip, apartment). The distance function and thresholds are
// configurable for the ablation experiments; paper defaults are edit
// distance with the thresholds below (§2.3: "the outcome of the program did
// not vary much among the different distance functions").

#ifndef MERGEPURGE_RULES_EMPLOYEE_THEORY_H_
#define MERGEPURGE_RULES_EMPLOYEE_THEORY_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "rules/equational_theory.h"

namespace mergepurge {

struct EmployeeTheoryOptions {
  enum class Distance { kEdit, kDamerau, kKeyboard };

  Distance distance = Distance::kDamerau;

  // "Differ slightly" threshold for name fields (similarity in [0,1]).
  double name_threshold = 0.80;

  // Looser surname threshold used where other evidence is strong.
  double weak_name_threshold = 0.70;

  // Threshold for street-address similarity.
  double address_threshold = 0.75;

  // Threshold for city similarity.
  double city_threshold = 0.80;

  // Use the nickname table for first-name equivalence.
  bool use_nicknames = true;

  // Require names to sound alike (Soundex) before a distance comparison is
  // allowed to succeed; tightens the theory (ablation knob).
  bool phonetic_gate = false;

  // Require exact city equality instead of thresholded similarity — the
  // behaviour of exact-matching rule bases, under which city spelling
  // correction (paper §3.2) pays off. Ablation knob; default off.
  bool strict_city = false;
};

class EmployeeTheory final : public EquationalTheory {
 public:
  explicit EmployeeTheory(
      EmployeeTheoryOptions options = EmployeeTheoryOptions());

  // Makes fresh instances with `options` (one per worker or lease).
  static TheoryFactory Factory(
      EmployeeTheoryOptions options = EmployeeTheoryOptions());

  bool Matches(const Record& a, const Record& b) const override;
  uint64_t comparison_count() const override { return comparison_count_; }

  // Adds per-rule firing counts (rules.fired.<rule-name>), distance-call
  // and early-exit counts to the global registry and zeroes the local
  // accumulators.
  void FlushMetrics() const override;

  // Index (0-based) of the rule that declared the pair equivalent, or -1.
  int MatchingRule(const Record& a, const Record& b) const;

  static constexpr size_t kNumRules = 26;

  // Name of rule `index` for reports; index < kNumRules.
  static std::string_view RuleName(size_t index);

  // Normalized similarity in [0,1] under the configured distance function.
  // Exposed for the pair-context evaluation and for tests.
  double Similarity(std::string_view x, std::string_view y) const;

  // Exactly equivalent to Similarity(x, y) >= threshold (identical
  // floating-point boundary), but computed with a bounded early-exit
  // distance where the distance kind allows it — the hot path of the
  // window scan.
  bool SimilarityAtLeast(std::string_view x, std::string_view y,
                         double threshold) const;

 private:
  // The rule cascade itself (no counting); MatchingRule wraps it with the
  // instrumentation.
  int EvalRules(const Record& a, const Record& b) const;

  EmployeeTheoryOptions options_;
  mutable uint64_t comparison_count_ = 0;
  // Rule-level stats batched locally (instances are not shared across
  // threads) and drained by FlushMetrics().
  mutable std::array<uint64_t, kNumRules> fire_counts_{};
  mutable uint64_t distance_calls_ = 0;
  mutable uint64_t distance_early_exits_ = 0;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_RULES_EMPLOYEE_THEORY_H_
