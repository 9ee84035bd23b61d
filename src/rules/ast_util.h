// AST utilities for the rule language: deep clone, r1/r2 swapping, and a
// canonical structural print used as a normal form by the static analyzer
// (rules/analysis/).
//
// The canonical print is designed so that two conditions with the same
// print are semantically equivalent (the converse does not hold — it is a
// conservative normal form):
//   * children of `and` / `or` are sorted, so conjunct/disjunct order is
//     irrelevant;
//   * comparisons are direction-canonicalized (`a > b` prints as `b < a`;
//     operands of `==` / `!=` are sorted);
//   * the two string arguments of symmetric built-ins (similarity,
//     sounds_like, ...) and the operands of + and * are sorted;
//   * within a conjunction, an equality between an expression and its
//     r1/r2 mirror (`r1.f == r2.f`, `digits(r1.m) == digits(r2.m)`)
//     licenses congruence rewriting: every other occurrence of either side
//     in that conjunction prints as the common representative. This is
//     what lets `r1.f == r2.f and not empty(r1.f)` compare equal to its
//     r1/r2-swapped form.

#ifndef MERGEPURGE_RULES_AST_UTIL_H_
#define MERGEPURGE_RULES_AST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "rules/ast.h"

namespace mergepurge {

// Deep copies (source lines included).
std::unique_ptr<Expr> CloneExpr(const Expr& expr);
std::unique_ptr<BoolExpr> CloneBool(const BoolExpr& node);

// Swaps every r1 field reference to r2 and vice versa, in place.
void SwapRecordIndices(Expr* expr);
void SwapRecordIndices(BoolExpr* node);

// Canonical structural prints (see file comment). Total functions: they
// never fail, even on ASTs that would not compile (unknown functions or
// fields print as written).
std::string CanonicalPrint(const Expr& expr);
std::string CanonicalPrint(const BoolExpr& node);

// True when the condition is invariant under swapping r1 and r2, judged
// by canonical-print equality of the condition and its swapped clone.
// Sound for positives (equal prints => symmetric); asymmetric-looking
// conditions may rarely be semantically symmetric in ways the normal form
// cannot see.
bool IsSymmetric(const BoolExpr& condition);

// The condition flattened to OR-of-AND form, one entry per disjunct, each
// a list of leaf conjuncts (any non-and/or node) with their canonical
// prints. Congruence substitutions from a disjunct's equalities are
// applied to its sibling conjuncts, so guard conjuncts compare equal
// across rules regardless of which record they name.
struct LeafConjunct {
  const BoolExpr* node = nullptr;
  std::string print;
  // For comparison leaves: the canonical orientation (op is kEq, kNe, kLt
  // or kLe after direction normalization) and the operand prints, so
  // consumers can reason about thresholds without re-deriving the
  // congruence substitutions.
  bool is_compare = false;
  CompareOp op = CompareOp::kEq;
  std::string lhs_print;
  std::string rhs_print;
};
std::vector<std::vector<LeafConjunct>> DisjunctiveLeafPrints(
    const BoolExpr& condition);

}  // namespace mergepurge

#endif  // MERGEPURGE_RULES_AST_UTIL_H_
