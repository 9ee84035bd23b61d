// EquationalTheory: the record-equivalence predicate applied inside the
// merge window (paper §2.3). "The equality of two values ... is not
// specified as a 'simple' arithmetic predicate, but rather by a set of
// equational axioms that define equivalence, i.e., by an equational
// theory."
//
// The implementation is RuleProgram (rules/rule_program.h): rule-language
// source compiled to branch code; the built-in employee theory
// (rules/employee_theory.h) is one such program. rules/theory_loader.h
// turns a --rules path (or none, for the built-in theory) into a
// TheoryFactory plus the purge policy that travels with it.

#ifndef MERGEPURGE_RULES_EQUATIONAL_THEORY_H_
#define MERGEPURGE_RULES_EQUATIONAL_THEORY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "record/record.h"

namespace mergepurge {

class EquationalTheory {
 public:
  virtual ~EquationalTheory() = default;

  // True when the theory declares the two records equivalent (the same
  // real-world entity). Must be symmetric; the window scanner presents
  // pairs in one order only.
  virtual bool Matches(const Record& a, const Record& b) const = 0;

  // The block form that scans use: LoadRows makes records[0..n) rows
  // 0..n-1, replacing the previous rows, and MatchesRows(i, j) is
  // Matches(*records[i], *records[j]). A scan loads each stretch of its
  // sort order once and compares rows, so a theory can prepare each
  // record once instead of once per pair (RuleProgram copies the fields
  // it reads and computes per-record values once per row). The records
  // must stay alive until the next LoadRows; a Matches call may replace
  // the rows. Default: keeps the pointers and calls Matches.
  virtual void LoadRows(const Record* const* records, size_t n) const {
    loaded_.assign(records, records + n);
  }
  virtual bool MatchesRows(size_t i, size_t j) const {
    return Matches(*loaded_[i], *loaded_[j]);
  }

  // Number of comparisons (Matches or MatchesRows calls) so far, the
  // dominant cost of the merge phase; used to fit the analytic model's
  // alpha and c constants.
  virtual uint64_t comparison_count() const = 0;

  // Adds n comparisons that clones of this theory made on its behalf to
  // comparison_count(), so a scan split across clones counts as the one
  // scan it replaces (the incremental engine's pooled AddBatch).
  virtual void AddComparisons(uint64_t n) const = 0;

  // Adds this theory's accumulated rule-level statistics (rule firings,
  // distance calls, early exits) to the global MetricsRegistry and clears
  // the local accumulators. Theories batch stats in plain members —
  // instances are not shared across threads — and the pipeline flushes
  // at pass boundaries (serial) or after a fragment's successful attempt
  // (parallel), so failed attempts never reach the registry.
  // Default: theory exposes no rule-level metrics.
  virtual void FlushMetrics() const {}

  // A fresh instance of the same theory with zeroed statistics, for one
  // concurrent scan (the batch pipeline clones one per fragment attempt).
  virtual std::unique_ptr<EquationalTheory> Clone() const = 0;

 private:
  mutable std::vector<const Record*> loaded_;  // The default's rows.
};

// Makes one theory instance per worker or lease: instances keep plain
// (unsynchronized) statistics, so concurrent scans each need their own.
using TheoryFactory = std::function<std::unique_ptr<EquationalTheory>()>;

}  // namespace mergepurge

#endif  // MERGEPURGE_RULES_EQUATIONAL_THEORY_H_
