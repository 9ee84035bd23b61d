// Abstract syntax tree for the merge/purge rule language.
//
// The language mirrors the structure of the paper's OPS5 rule base: a
// program is an ordered list of rules; each rule has a boolean condition
// over the two records under comparison (r1, r2); a pair matches when ANY
// rule's condition holds (rules are disjuncts, as in a production system
// where any rule may fire).
//
//   rule same-ssn-similar-name:
//     if r1.ssn == r2.ssn
//     and similarity(r1.last_name, r2.last_name) >= 0.8
//     then match
//
// Conditions support and / or / not with the usual precedence (not > and >
// or) and parentheses. Leaf conditions are comparisons (`expr op expr`) or
// bare boolean expressions (`sounds_like(...)`). Value expressions are
// strings, numbers or booleans; built-in functions expose the distance
// library (similarity, edit_distance, soundex, ...). Numbers combine with
// + * / (the usual precedence, left-associative; x / 0 is 0).

#ifndef MERGEPURGE_RULES_AST_H_
#define MERGEPURGE_RULES_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "record/schema.h"

namespace mergepurge {

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

enum class ExprKind {
  kStringLiteral,
  kNumberLiteral,
  kFieldRef,  // r1.field or r2.field
  kFuncCall,
  kArith,     // args[0] arith_op args[1], both numbers
};

enum class ArithOp { kAdd, kMul, kDiv };

struct Expr {
  ExprKind kind;
  // Source line of the first token of this expression (1-based; 0 for
  // synthesized nodes). The static analyzer anchors diagnostics here.
  int source_line = 0;

  // kStringLiteral.
  std::string string_value;
  // kNumberLiteral.
  double number_value = 0.0;
  // kFieldRef: which record (1 or 2) and the field name; the field id is
  // resolved at bind time.
  int record_index = 0;
  std::string field_name;
  // kFuncCall.
  std::string func_name;
  // kFuncCall arguments; the two operands of kArith.
  std::vector<std::unique_ptr<Expr>> args;
  // kArith.
  ArithOp arith_op = ArithOp::kAdd;
};

enum class BoolKind {
  kAnd,
  kOr,
  kNot,
  kCompare,  // lhs op rhs
  kBare,     // boolean-valued expression
};

struct BoolExpr {
  BoolKind kind;
  // Source line of the first token of this condition (1-based; 0 for
  // synthesized nodes).
  int source_line = 0;
  // kAnd / kOr: two or more children. kNot: one child.
  std::vector<std::unique_ptr<BoolExpr>> children;
  // kCompare / kBare.
  std::unique_ptr<Expr> lhs;
  CompareOp op = CompareOp::kEq;
  std::unique_ptr<Expr> rhs;  // kCompare only.
};

struct Rule {
  std::string name;
  std::unique_ptr<BoolExpr> condition;
  int source_line = 0;
};

// A purge-phase directive: `merge <field>: prefer <strategy>` (paper §5's
// data-directed projections; see core/purge_policy.h for the strategies).
struct MergeDirective {
  std::string field_name;
  std::string strategy_name;
  int source_line = 0;
};

struct RuleProgramAst {
  std::vector<Rule> rules;
  std::vector<MergeDirective> merge_directives;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_RULES_AST_H_
