#include "rules/ast_util.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "rules/builtins.h"
#include "util/string_util.h"

namespace mergepurge {

std::unique_ptr<Expr> CloneExpr(const Expr& expr) {
  auto out = std::make_unique<Expr>();
  out->kind = expr.kind;
  out->source_line = expr.source_line;
  out->string_value = expr.string_value;
  out->number_value = expr.number_value;
  out->record_index = expr.record_index;
  out->field_name = expr.field_name;
  out->func_name = expr.func_name;
  out->arith_op = expr.arith_op;
  out->args.reserve(expr.args.size());
  for (const std::unique_ptr<Expr>& arg : expr.args) {
    out->args.push_back(CloneExpr(*arg));
  }
  return out;
}

std::unique_ptr<BoolExpr> CloneBool(const BoolExpr& node) {
  auto out = std::make_unique<BoolExpr>();
  out->kind = node.kind;
  out->source_line = node.source_line;
  out->op = node.op;
  if (node.lhs != nullptr) out->lhs = CloneExpr(*node.lhs);
  if (node.rhs != nullptr) out->rhs = CloneExpr(*node.rhs);
  out->children.reserve(node.children.size());
  for (const std::unique_ptr<BoolExpr>& child : node.children) {
    out->children.push_back(CloneBool(*child));
  }
  return out;
}

void SwapRecordIndices(Expr* expr) {
  if (expr->kind == ExprKind::kFieldRef) {
    expr->record_index = expr->record_index == 1 ? 2 : 1;
  }
  for (std::unique_ptr<Expr>& arg : expr->args) SwapRecordIndices(arg.get());
}

void SwapRecordIndices(BoolExpr* node) {
  if (node->lhs != nullptr) SwapRecordIndices(node->lhs.get());
  if (node->rhs != nullptr) SwapRecordIndices(node->rhs.get());
  for (std::unique_ptr<BoolExpr>& child : node->children) {
    SwapRecordIndices(child.get());
  }
}

namespace {

// Congruence substitutions: canonical print -> representative print.
// Conditions are small (tens of nodes), so a flat vector beats a map.
using Subst = std::vector<std::pair<std::string, std::string>>;

std::string ApplySubst(std::string print, const Subst& subst) {
  for (const auto& [from, to] : subst) {
    if (print == from) return to;
  }
  return print;
}

std::string PrintExpr(const Expr& expr, const Subst& subst) {
  std::string out;
  switch (expr.kind) {
    case ExprKind::kStringLiteral:
      out = "\"" + expr.string_value + "\"";
      break;
    case ExprKind::kNumberLiteral:
      out = StringPrintf("%.17g", expr.number_value);
      break;
    case ExprKind::kFieldRef:
      out = (expr.record_index == 1 ? "r1." : "r2.") + expr.field_name;
      break;
    case ExprKind::kArith: {
      // + and * commute exactly in floating point (they do not
      // associate, so chains are not flattened).
      std::string lhs = PrintExpr(*expr.args[0], subst);
      std::string rhs = PrintExpr(*expr.args[1], subst);
      if (expr.arith_op != ArithOp::kDiv && lhs > rhs) std::swap(lhs, rhs);
      const char* op = expr.arith_op == ArithOp::kAdd   ? "+"
                       : expr.arith_op == ArithOp::kMul ? "*"
                                                        : "/";
      out = "(" + lhs + op + rhs + ")";
      break;
    }
    case ExprKind::kFuncCall: {
      std::vector<std::string> args;
      args.reserve(expr.args.size());
      for (const std::unique_ptr<Expr>& arg : expr.args) {
        args.push_back(PrintExpr(*arg, subst));
      }
      // Sort the two string arguments of a symmetric built-in; on arity
      // mismatch (program would not compile) print as written.
      const rules_internal::FuncSignature* signature =
          rules_internal::FindFunction(expr.func_name);
      if (signature != nullptr && signature->symmetric &&
          expr.args.size() == signature->arg_types.size()) {
        int first = -1;
        int second = -1;
        for (size_t i = 0; i < signature->arg_types.size(); ++i) {
          if (signature->arg_types[i] != rules_internal::ValueType::kString) {
            continue;
          }
          (first < 0 ? first : second) = static_cast<int>(i);
        }
        if (first >= 0 && second >= 0 && args[first] > args[second]) {
          std::swap(args[first], args[second]);
        }
      }
      out = expr.func_name + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ",";
        out += args[i];
      }
      out += ")";
      break;
    }
  }
  return ApplySubst(std::move(out), subst);
}

std::string PrintBool(const BoolExpr& node, const Subst& subst);

// Gathers the transitive non-`and` leaves (conjuncts) of an `and` subtree.
void FlattenAnd(const BoolExpr& node, std::vector<const BoolExpr*>* out) {
  if (node.kind == BoolKind::kAnd) {
    for (const std::unique_ptr<BoolExpr>& child : node.children) {
      FlattenAnd(*child, out);
    }
    return;
  }
  out->push_back(&node);
}

void FlattenOr(const BoolExpr& node, std::vector<const BoolExpr*>* out) {
  if (node.kind == BoolKind::kOr) {
    for (const std::unique_ptr<BoolExpr>& child : node.children) {
      FlattenOr(*child, out);
    }
    return;
  }
  out->push_back(&node);
}

// If `leaf` is an equality between an expression and its r1/r2 mirror,
// returns the substitution (larger print -> smaller print) it licenses
// within its conjunction.
std::optional<std::pair<std::string, std::string>> MirrorEqualityMapping(
    const BoolExpr& leaf, const Subst& inherited) {
  if (leaf.kind != BoolKind::kCompare || leaf.op != CompareOp::kEq ||
      leaf.lhs == nullptr || leaf.rhs == nullptr) {
    return std::nullopt;
  }
  std::string lhs_print = PrintExpr(*leaf.lhs, inherited);
  std::string rhs_print = PrintExpr(*leaf.rhs, inherited);
  if (lhs_print == rhs_print) return std::nullopt;
  std::unique_ptr<Expr> mirrored = CloneExpr(*leaf.lhs);
  SwapRecordIndices(mirrored.get());
  if (PrintExpr(*mirrored, inherited) != rhs_print) return std::nullopt;
  if (lhs_print < rhs_print) {
    return std::make_pair(std::move(rhs_print), std::move(lhs_print));
  }
  return std::make_pair(std::move(lhs_print), std::move(rhs_print));
}

// Per-conjunct substitutions for a conjunction: conjunct i is printed with
// every mapping its siblings license, but not its own (so the equality
// itself keeps both sides and stays distinct from a self-comparison).
std::vector<Subst> ConjunctSubsts(const std::vector<const BoolExpr*>& leaves,
                                  const Subst& inherited) {
  std::vector<std::optional<std::pair<std::string, std::string>>> own;
  own.reserve(leaves.size());
  for (const BoolExpr* leaf : leaves) {
    own.push_back(MirrorEqualityMapping(*leaf, inherited));
  }
  std::vector<Subst> per_leaf(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    Subst subst = inherited;
    for (size_t j = 0; j < leaves.size(); ++j) {
      if (j != i && own[j].has_value()) subst.push_back(*own[j]);
    }
    per_leaf[i] = std::move(subst);
  }
  return per_leaf;
}

// Canonical orientation of a comparison: sides of > / >= flipped so the
// op is < / <=, operands of == / != sorted.
struct CompareParts {
  std::string lhs;
  CompareOp op = CompareOp::kEq;
  std::string rhs;
};

CompareParts CanonicalCompareParts(const BoolExpr& node,
                                   const Subst& subst) {
  CompareParts parts;
  parts.lhs = PrintExpr(*node.lhs, subst);
  parts.rhs = PrintExpr(*node.rhs, subst);
  parts.op = node.op;
  if (parts.op == CompareOp::kGt) {
    std::swap(parts.lhs, parts.rhs);
    parts.op = CompareOp::kLt;
  } else if (parts.op == CompareOp::kGe) {
    std::swap(parts.lhs, parts.rhs);
    parts.op = CompareOp::kLe;
  }
  if ((parts.op == CompareOp::kEq || parts.op == CompareOp::kNe) &&
      parts.lhs > parts.rhs) {
    std::swap(parts.lhs, parts.rhs);
  }
  return parts;
}

std::string PrintCompare(const BoolExpr& node, const Subst& subst) {
  CompareParts parts = CanonicalCompareParts(node, subst);
  const char* op_text = parts.op == CompareOp::kEq   ? "=="
                        : parts.op == CompareOp::kNe ? "!="
                        : parts.op == CompareOp::kLt ? "<"
                                                     : "<=";
  return "(" + parts.lhs + op_text + parts.rhs + ")";
}

std::string JoinSorted(std::vector<std::string> parts, char sep) {
  std::sort(parts.begin(), parts.end());
  std::string out = "(";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  out += ")";
  return out;
}

std::string PrintBool(const BoolExpr& node, const Subst& subst) {
  switch (node.kind) {
    case BoolKind::kAnd: {
      std::vector<const BoolExpr*> leaves;
      FlattenAnd(node, &leaves);
      std::vector<Subst> per_leaf = ConjunctSubsts(leaves, subst);
      std::vector<std::string> parts;
      parts.reserve(leaves.size());
      for (size_t i = 0; i < leaves.size(); ++i) {
        parts.push_back(PrintBool(*leaves[i], per_leaf[i]));
      }
      return JoinSorted(std::move(parts), '&');
    }
    case BoolKind::kOr: {
      std::vector<const BoolExpr*> branches;
      FlattenOr(node, &branches);
      std::vector<std::string> parts;
      parts.reserve(branches.size());
      for (const BoolExpr* branch : branches) {
        parts.push_back(PrintBool(*branch, subst));
      }
      return JoinSorted(std::move(parts), '|');
    }
    case BoolKind::kNot:
      return "!" + PrintBool(*node.children[0], subst);
    case BoolKind::kCompare:
      return PrintCompare(node, subst);
    case BoolKind::kBare:
      return PrintExpr(*node.lhs, subst);
  }
  return "";
}

}  // namespace

std::string CanonicalPrint(const Expr& expr) { return PrintExpr(expr, {}); }

std::string CanonicalPrint(const BoolExpr& node) {
  return PrintBool(node, {});
}

bool IsSymmetric(const BoolExpr& condition) {
  std::unique_ptr<BoolExpr> swapped = CloneBool(condition);
  SwapRecordIndices(swapped.get());
  return CanonicalPrint(condition) == CanonicalPrint(*swapped);
}

std::vector<std::vector<LeafConjunct>> DisjunctiveLeafPrints(
    const BoolExpr& condition) {
  std::vector<const BoolExpr*> branches;
  FlattenOr(condition, &branches);
  std::vector<std::vector<LeafConjunct>> out;
  out.reserve(branches.size());
  for (const BoolExpr* branch : branches) {
    std::vector<const BoolExpr*> leaves;
    FlattenAnd(*branch, &leaves);
    std::vector<Subst> per_leaf = ConjunctSubsts(leaves, {});
    std::vector<LeafConjunct> conjuncts;
    conjuncts.reserve(leaves.size());
    for (size_t i = 0; i < leaves.size(); ++i) {
      LeafConjunct conjunct;
      conjunct.node = leaves[i];
      conjunct.print = PrintBool(*leaves[i], per_leaf[i]);
      if (leaves[i]->kind == BoolKind::kCompare) {
        CompareParts parts = CanonicalCompareParts(*leaves[i], per_leaf[i]);
        conjunct.is_compare = true;
        conjunct.op = parts.op;
        conjunct.lhs_print = std::move(parts.lhs);
        conjunct.rhs_print = std::move(parts.rhs);
      }
      conjuncts.push_back(std::move(conjunct));
    }
    out.push_back(std::move(conjuncts));
  }
  return out;
}

}  // namespace mergepurge
