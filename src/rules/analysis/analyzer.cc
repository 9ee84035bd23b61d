#include "rules/analysis/analyzer.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "core/purge_policy.h"
#include "rules/ast_util.h"
#include "rules/builtins.h"
#include "rules/parser.h"
#include "rules/rule_program.h"
#include "util/string_util.h"

namespace mergepurge {

namespace {

using rules_internal::FindFunction;
using rules_internal::FuncSignature;
using rules_internal::NumericRange;
using rules_internal::ValueType;

// --- Suppressions -----------------------------------------------------------

bool LineAllows(const AnalyzerOptions& options, int line,
                const std::string& id) {
  auto it = options.allows.find(line);
  if (it == options.allows.end()) return false;
  return std::find(it->second.begin(), it->second.end(), id) !=
         it->second.end();
}

// Routes a finding to the report, honoring `# rulecheck: allow(...)`
// comments on either the finding's own line or its owning construct's line.
void Emit(const AnalyzerOptions& options, int owner_line, Diagnostic d,
          AnalysisReport* report) {
  if (LineAllows(options, d.line, d.id) ||
      LineAllows(options, owner_line, d.id)) {
    report->AddSuppressed();
    return;
  }
  report->Add(std::move(d));
}

bool HasFieldRef(const Expr& expr) {
  if (expr.kind == ExprKind::kFieldRef) return true;
  for (const std::unique_ptr<Expr>& arg : expr.args) {
    if (HasFieldRef(*arg)) return true;
  }
  return false;
}

void CollectFieldRefs(const Expr& expr, std::set<std::string>* r1,
                      std::set<std::string>* r2) {
  if (expr.kind == ExprKind::kFieldRef) {
    (expr.record_index == 1 ? r1 : r2)->insert(expr.field_name);
  }
  for (const std::unique_ptr<Expr>& arg : expr.args) {
    CollectFieldRefs(*arg, r1, r2);
  }
}

// Compiles `condition` as a one-rule program over the fields it names and
// runs it on two records whose fields are all empty; nullopt when it does
// not compile. It is the code any theory runs, so the verdict cannot drift
// from runtime semantics.
std::optional<bool> EvaluateOnBlankRecords(const BoolExpr& condition) {
  std::set<std::string> names;
  auto collect = [&names](const BoolExpr& node, auto& self) -> void {
    for (const std::unique_ptr<BoolExpr>& child : node.children) {
      self(*child, self);
    }
    if (node.lhs != nullptr) CollectFieldRefs(*node.lhs, &names, &names);
    if (node.rhs != nullptr) CollectFieldRefs(*node.rhs, &names, &names);
  };
  collect(condition, collect);
  RuleProgramAst ast;
  ast.rules.emplace_back();
  ast.rules.back().condition = CloneBool(condition);
  Result<RuleProgram> program = RuleProgram::FromAst(
      ast, Schema(std::vector<std::string>(names.begin(), names.end())));
  if (!program.ok()) return std::nullopt;
  const Record blank;  // Every field reads as "".
  return program->Matches(blank, blank);
}

// --- Interval analysis ------------------------------------------------------

// Output range of a numeric expression, when one is statically known.
std::optional<NumericRange> RangeOf(const Expr& expr) {
  if (expr.kind == ExprKind::kNumberLiteral) {
    return NumericRange{expr.number_value, expr.number_value};
  }
  if (expr.kind == ExprKind::kFuncCall) {
    const FuncSignature* signature = FindFunction(expr.func_name);
    if (signature != nullptr &&
        signature->return_type == ValueType::kNumber) {
      return signature->range;
    }
  }
  // Arithmetic over non-negative ranges (every built-in's); a quotient
  // whose divisor can be 0 is unbounded.
  if (expr.kind == ExprKind::kArith) {
    const std::optional<NumericRange> a = RangeOf(*expr.args[0]);
    const std::optional<NumericRange> b = RangeOf(*expr.args[1]);
    if (!a || !b || a->lo < 0.0 || b->lo < 0.0) return std::nullopt;
    auto times = [](double x, double y) {
      return x == 0.0 || y == 0.0 ? 0.0 : x * y;
    };
    switch (expr.arith_op) {
      case ArithOp::kAdd:
        return NumericRange{a->lo + b->lo, a->hi + b->hi};
      case ArithOp::kMul:
        return NumericRange{times(a->lo, b->lo), times(a->hi, b->hi)};
      case ArithOp::kDiv:
        if (b->lo == 0.0) return std::nullopt;
        return NumericRange{a->lo / b->hi, a->hi / b->lo};
    }
  }
  return std::nullopt;
}

CompareOp Negate(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  return CompareOp::kEq;
}

// True when `a op b` holds for every a in [a.lo,a.hi], b in [b.lo,b.hi].
bool AlwaysTrue(CompareOp op, const NumericRange& a, const NumericRange& b) {
  switch (op) {
    case CompareOp::kLt:
      return a.hi < b.lo;
    case CompareOp::kLe:
      return a.hi <= b.lo;
    case CompareOp::kGt:
      return a.lo > b.hi;
    case CompareOp::kGe:
      return a.lo >= b.hi;
    case CompareOp::kEq:
      return a.lo == a.hi && b.lo == b.hi && a.lo == b.lo;
    case CompareOp::kNe:
      return a.hi < b.lo || b.hi < a.lo;
  }
  return false;
}

bool AlwaysFalse(CompareOp op, const NumericRange& a, const NumericRange& b) {
  return AlwaysTrue(Negate(op), a, b);
}

const char* OpText(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string DescribeRange(const NumericRange& range) {
  if (range.lo == range.hi) return StringPrintf("%g", range.lo);
  if (range.hi == std::numeric_limits<double>::infinity()) {
    return StringPrintf("[%g, inf)", range.lo);
  }
  return StringPrintf("[%g, %g]", range.lo, range.hi);
}

// Per-comparison lints on a leaf that reads a record: self-comparison and
// interval contradiction/tautology.
void CheckComparisonLeaf(const BoolExpr& node, const Rule& rule,
                         const AnalyzerOptions& options,
                         AnalysisReport* report) {
  // Identical canonical operands: `x == x` and friends.
  if (CanonicalPrint(*node.lhs) == CanonicalPrint(*node.rhs)) {
    bool always = node.op == CompareOp::kEq || node.op == CompareOp::kLe ||
                  node.op == CompareOp::kGe;
    Emit(options, rule.source_line,
         {always ? "tautological-condition" : "unsatisfiable-condition",
          LintSeverity::kWarning, node.source_line, rule.name,
          StringPrintf("both sides of '%s' are the same expression, so the "
                       "comparison is always %s",
                       OpText(node.op), always ? "true" : "false"),
          "compare r1's field against r2's, not against itself"},
         report);
    return;
  }

  std::optional<NumericRange> lhs = RangeOf(*node.lhs);
  std::optional<NumericRange> rhs = RangeOf(*node.rhs);
  if (!lhs.has_value() || !rhs.has_value()) return;
  if (AlwaysTrue(node.op, *lhs, *rhs)) {
    Emit(options, rule.source_line,
         {"tautological-condition", LintSeverity::kWarning, node.source_line,
          rule.name,
          StringPrintf("always true: left side ranges over %s, right side "
                       "over %s",
                       DescribeRange(*lhs).c_str(),
                       DescribeRange(*rhs).c_str()),
          "the threshold is outside the function's output range"},
         report);
  } else if (AlwaysFalse(node.op, *lhs, *rhs)) {
    Emit(options, rule.source_line,
         {"unsatisfiable-condition", LintSeverity::kWarning,
          node.source_line, rule.name,
          StringPrintf("never true: left side ranges over %s, right side "
                       "over %s",
                       DescribeRange(*lhs).c_str(),
                       DescribeRange(*rhs).c_str()),
          "the threshold is outside the function's output range"},
         report);
  }
}

void CheckConditionTree(const BoolExpr& node, const Rule& rule,
                        const AnalyzerOptions& options,
                        AnalysisReport* report) {
  switch (node.kind) {
    case BoolKind::kAnd:
    case BoolKind::kOr:
    case BoolKind::kNot:
      for (const std::unique_ptr<BoolExpr>& child : node.children) {
        CheckConditionTree(*child, rule, options, report);
      }
      return;
    case BoolKind::kCompare:
    case BoolKind::kBare:
      break;
  }
  const bool compare = node.kind == BoolKind::kCompare;
  // A leaf that reads neither record is decided before any data arrives.
  if (!HasFieldRef(*node.lhs) && !(compare && HasFieldRef(*node.rhs))) {
    std::optional<bool> value = EvaluateOnBlankRecords(node);
    if (value.has_value()) {
      Emit(options, rule.source_line,
           {"constant-comparison", LintSeverity::kWarning, node.source_line,
            rule.name,
            StringPrintf("%s reads neither record and is always %s",
                         compare ? "comparison" : "condition",
                         *value ? "true" : "false"),
            compare ? "drop the comparison, or compare against a field of "
                      "r1/r2"
                    : "drop the condition, or apply it to a field of r1/r2"},
           report);
    }
  } else if (compare) {
    CheckComparisonLeaf(node, rule, options, report);
  }
}

// --- Subsumption ------------------------------------------------------------

// True when `print` is exactly a canonical number literal.
bool ParseNumberPrint(const std::string& print, double* out) {
  if (print.empty()) return false;
  char* end = nullptr;
  double value = std::strtod(print.c_str(), &end);
  if (end != print.c_str() + print.size()) return false;
  *out = value;
  return true;
}

// A conjunct of the form expr-vs-number-literal, in solved form.
struct ThresholdAtom {
  enum Kind { kLower, kUpper, kPoint } kind = kPoint;  // e > k, e < k, e == k
  std::string expr;  // canonical print of the non-literal side
  double k = 0.0;
  bool strict = false;  // meaningful for kLower / kUpper
};

std::optional<ThresholdAtom> AtomOf(const LeafConjunct& conjunct) {
  if (!conjunct.is_compare) return std::nullopt;
  double lhs_k = 0.0;
  double rhs_k = 0.0;
  bool lhs_num = ParseNumberPrint(conjunct.lhs_print, &lhs_k);
  bool rhs_num = ParseNumberPrint(conjunct.rhs_print, &rhs_k);
  if (lhs_num == rhs_num) return std::nullopt;  // zero or two literals
  ThresholdAtom atom;
  switch (conjunct.op) {  // canonical: only kEq / kNe / kLt / kLe occur
    case CompareOp::kLt:
    case CompareOp::kLe:
      atom.strict = conjunct.op == CompareOp::kLt;
      if (lhs_num) {  // k < e  =>  lower bound on e
        atom.kind = ThresholdAtom::kLower;
        atom.expr = conjunct.rhs_print;
        atom.k = lhs_k;
      } else {  // e < k  =>  upper bound on e
        atom.kind = ThresholdAtom::kUpper;
        atom.expr = conjunct.lhs_print;
        atom.k = rhs_k;
      }
      return atom;
    case CompareOp::kEq:
      atom.kind = ThresholdAtom::kPoint;
      atom.expr = lhs_num ? conjunct.rhs_print : conjunct.lhs_print;
      atom.k = lhs_num ? lhs_k : rhs_k;
      return atom;
    default:
      return std::nullopt;
  }
}

bool AtomImplies(const ThresholdAtom& c, const ThresholdAtom& a) {
  if (c.expr != a.expr) return false;
  switch (a.kind) {
    case ThresholdAtom::kLower:  // a: e > k (strict) or e >= k
      if (c.kind == ThresholdAtom::kLower) {
        return c.k > a.k || (c.k == a.k && (c.strict || !a.strict));
      }
      if (c.kind == ThresholdAtom::kPoint) {
        return a.strict ? c.k > a.k : c.k >= a.k;
      }
      return false;
    case ThresholdAtom::kUpper:
      if (c.kind == ThresholdAtom::kUpper) {
        return c.k < a.k || (c.k == a.k && (c.strict || !a.strict));
      }
      if (c.kind == ThresholdAtom::kPoint) {
        return a.strict ? c.k < a.k : c.k <= a.k;
      }
      return false;
    case ThresholdAtom::kPoint:
      return c.kind == ThresholdAtom::kPoint && c.k == a.k;
  }
  return false;
}

// True when conjunct `c` logically implies conjunct `a`: identical prints,
// or both are thresholds on the same expression and c's is at least as
// tight.
bool ConjunctImplies(const LeafConjunct& c, const LeafConjunct& a) {
  if (c.print == a.print) return true;
  std::optional<ThresholdAtom> c_atom = AtomOf(c);
  std::optional<ThresholdAtom> a_atom = AtomOf(a);
  if (!c_atom.has_value() || !a_atom.has_value()) return false;
  return AtomImplies(*c_atom, *a_atom);
}

using Dnf = std::vector<std::vector<LeafConjunct>>;

// True when condition B implies condition A: every disjunct of B entails
// some disjunct of A (all of that disjunct's conjuncts are implied).
bool ConditionImplies(const Dnf& b, const Dnf& a) {
  for (const std::vector<LeafConjunct>& d : b) {
    bool entailed = false;
    for (const std::vector<LeafConjunct>& e : a) {
      bool all = true;
      for (const LeafConjunct& want : e) {
        bool found = false;
        for (const LeafConjunct& have : d) {
          if (ConjunctImplies(have, want)) {
            found = true;
            break;
          }
        }
        if (!found) {
          all = false;
          break;
        }
      }
      if (all) {
        entailed = true;
        break;
      }
    }
    if (!entailed) return false;
  }
  return true;
}

// --- Per-lint drivers -------------------------------------------------------

void CheckSymmetry(const RuleProgramAst& ast, const AnalyzerOptions& options,
                   AnalysisReport* report) {
  for (const Rule& rule : ast.rules) {
    if (IsSymmetric(*rule.condition)) continue;
    Emit(options, rule.source_line,
         {"asymmetric-rule", LintSeverity::kWarning, rule.source_line,
          rule.name,
          "condition is not invariant under swapping r1 and r2, so whether "
          "a pair matches depends on record order within a window",
          "make every conjunct symmetric, e.g. guard both records "
          "('not empty(r1.f) and not empty(r2.f)') or compare both "
          "directions"},
         report);
  }
}

void CheckBlankMerge(const RuleProgramAst& ast, const AnalyzerOptions& options,
                     AnalysisReport* report) {
  for (const Rule& rule : ast.rules) {
    std::optional<bool> fires = EvaluateOnBlankRecords(*rule.condition);
    if (!fires.has_value() || !*fires) continue;
    Emit(options, rule.source_line,
         {"blank-merge", LintSeverity::kError, rule.source_line, rule.name,
          "condition holds for two records whose fields are all empty; "
          "under transitive closure this rule folds every blank-keyed "
          "record into one giant cluster",
          "add 'and not empty(r1.<field>)' for at least one field the rule "
          "relies on (similarity(\"\", \"\") is 1.0, so thresholds alone do "
          "not protect you)"},
         report);
  }
}

void CheckConditions(const RuleProgramAst& ast, const AnalyzerOptions& options,
                     AnalysisReport* report) {
  for (const Rule& rule : ast.rules) {
    CheckConditionTree(*rule.condition, rule, options, report);
  }
}

void CheckDuplicatesAndSubsumption(const RuleProgramAst& ast,
                                   const AnalyzerOptions& options,
                                   AnalysisReport* report) {
  std::vector<std::string> prints;
  std::vector<Dnf> dnfs;
  prints.reserve(ast.rules.size());
  dnfs.reserve(ast.rules.size());
  for (const Rule& rule : ast.rules) {
    prints.push_back(CanonicalPrint(*rule.condition));
    dnfs.push_back(DisjunctiveLeafPrints(*rule.condition));
  }
  for (size_t i = 0; i < ast.rules.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (prints[i] == prints[j]) {
        Emit(options, ast.rules[i].source_line,
             {"duplicate-rule", LintSeverity::kWarning,
              ast.rules[i].source_line, ast.rules[i].name,
              StringPrintf("condition is identical to rule '%s' (line %d); "
                           "this rule can never be the first to fire",
                           ast.rules[j].name.c_str(),
                           ast.rules[j].source_line),
              "delete one of the two rules"},
             report);
        break;
      }
      if (ConditionImplies(dnfs[i], dnfs[j])) {
        Emit(options, ast.rules[i].source_line,
             {"subsumed-rule", LintSeverity::kWarning,
              ast.rules[i].source_line, ast.rules[i].name,
              StringPrintf("every pair this rule matches is already "
                           "matched by the earlier rule '%s' (line %d)",
                           ast.rules[j].name.c_str(),
                           ast.rules[j].source_line),
              "delete this rule, or loosen its thresholds if it was meant "
              "to match more pairs"},
             report);
        break;
      }
    }
  }
}

void CheckRuleNames(const RuleProgramAst& ast, const AnalyzerOptions& options,
                    AnalysisReport* report) {
  for (size_t i = 0; i < ast.rules.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (ast.rules[i].name != ast.rules[j].name) continue;
      Emit(options, ast.rules[i].source_line,
           {"duplicate-rule-name", LintSeverity::kWarning,
            ast.rules[i].source_line, ast.rules[i].name,
            StringPrintf("rule name already used at line %d; per-rule fire "
                         "metrics for the two rules are indistinguishable",
                         ast.rules[j].source_line),
            "rename one of the rules"},
           report);
      break;
    }
  }
}

void CheckMergeDirectives(const RuleProgramAst& ast,
                          const AnalyzerOptions& options,
                          AnalysisReport* report) {
  for (size_t i = 0; i < ast.merge_directives.size(); ++i) {
    const MergeDirective& directive = ast.merge_directives[i];
    if (!MergeStrategyFromName(directive.strategy_name).ok()) {
      Emit(options, directive.source_line,
           {"unknown-merge-strategy", LintSeverity::kError,
            directive.source_line, "",
            StringPrintf("'%s' is not a merge strategy",
                         directive.strategy_name.c_str()),
            "see core/purge_policy.h for the strategy names"},
           report);
    }
    for (size_t j = 0; j < i; ++j) {
      if (ast.merge_directives[j].field_name != directive.field_name) {
        continue;
      }
      Emit(options, directive.source_line,
           {"duplicate-merge-directive", LintSeverity::kWarning,
            directive.source_line, "",
            StringPrintf("field '%s' already has a merge directive at line "
                         "%d; the later directive wins silently",
                         directive.field_name.c_str(),
                         ast.merge_directives[j].source_line),
            "keep a single directive per field"},
           report);
      break;
    }
  }
}

// --- Window coverage --------------------------------------------------------

std::set<std::string> Intersect(const std::set<std::string>& a,
                                const std::set<std::string>& b) {
  std::set<std::string> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::inserter(out, out.begin()));
  return out;
}

// The fields a satisfying pair must "agree" on, under-approximated
// syntactically: a leaf ties field f when it reads BOTH r1.f and r2.f
// (equality, similarity, damerau, ... — any two-sided read counts, since
// keys only need matching records to sort NEAR each other, not equal).
// Conjunction ties the union of its children, disjunction only what every
// branch ties, and negation conservatively ties nothing.
std::set<std::string> TiedFields(const BoolExpr& node) {
  switch (node.kind) {
    case BoolKind::kAnd: {
      std::set<std::string> tied;
      for (const std::unique_ptr<BoolExpr>& child : node.children) {
        std::set<std::string> t = TiedFields(*child);
        tied.insert(t.begin(), t.end());
      }
      return tied;
    }
    case BoolKind::kOr: {
      std::set<std::string> tied;
      bool first = true;
      for (const std::unique_ptr<BoolExpr>& child : node.children) {
        std::set<std::string> t = TiedFields(*child);
        tied = first ? std::move(t) : Intersect(tied, t);
        first = false;
        if (tied.empty()) break;
      }
      return tied;
    }
    case BoolKind::kNot:
      return {};
    case BoolKind::kCompare:
    case BoolKind::kBare: {
      std::set<std::string> r1;
      std::set<std::string> r2;
      CollectFieldRefs(*node.lhs, &r1, &r2);
      if (node.rhs != nullptr) CollectFieldRefs(*node.rhs, &r1, &r2);
      return Intersect(r1, r2);
    }
  }
  return {};
}

std::string JoinSet(const std::set<std::string>& fields) {
  std::string out;
  for (const std::string& f : fields) {
    if (!out.empty()) out += ", ";
    out += f;
  }
  return out;
}

// window-coverage: every pair a rule matches must agree on at least one
// field some pass sorts on, or the sorted-neighborhood windows never
// bring the pair together and the rule is dead weight (paper §2.2: "keys
// should be chosen so that similar and matching records should have
// nearly equal key values").
void CheckWindowCoverage(const RuleProgramAst& ast,
                         const AnalyzerOptions& options,
                         AnalysisReport* report) {
  if (options.passes.empty()) return;
  std::string pass_text;
  for (const PassKeyFields& pass : options.passes) {
    if (!pass_text.empty()) pass_text += "; ";
    pass_text += pass.name.empty() ? "pass" : pass.name;
    pass_text += " sorts on ";
    for (size_t i = 0; i < pass.fields.size(); ++i) {
      if (i > 0) pass_text += "+";
      pass_text += pass.fields[i];
    }
  }
  for (const Rule& rule : ast.rules) {
    std::set<std::string> tied = TiedFields(*rule.condition);
    bool covered = false;
    for (const PassKeyFields& pass : options.passes) {
      for (const std::string& field : pass.fields) {
        if (tied.count(field) > 0) {
          covered = true;
          break;
        }
      }
      if (covered) break;
    }
    if (covered) continue;
    std::string tied_text =
        tied.empty() ? "ties no field between r1 and r2"
                     : StringPrintf("only ties %s", JoinSet(tied).c_str());
    Emit(options, rule.source_line,
         {"window-coverage", LintSeverity::kWarning, rule.source_line,
          rule.name,
          StringPrintf("no configured sort pass can bring this rule's "
                       "pairs into one window: the condition %s, but %s",
                       tied_text.c_str(), pass_text.c_str()),
          "add a pass whose key leads with a field the rule ties, or make "
          "the condition require agreement on an already-keyed field"},
         report);
  }
}

}  // namespace

std::map<int, std::vector<std::string>> ExtractSuppressions(
    std::string_view source) {
  std::map<int, std::vector<std::string>> allows;
  std::vector<std::string> pending;
  int line_number = 0;
  size_t start = 0;
  while (start <= source.size()) {
    size_t end = source.find('\n', start);
    if (end == std::string_view::npos) end = source.size();
    std::string_view line = source.substr(start, end - start);
    ++line_number;
    start = end + 1;

    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string_view::npos) continue;  // blank: keep pending
    if (line[first] != '#') {
      // A code line: pending allows attach here.
      if (!pending.empty()) {
        std::vector<std::string>& slot = allows[line_number];
        slot.insert(slot.end(), pending.begin(), pending.end());
        pending.clear();
      }
      continue;
    }
    constexpr std::string_view kMarker = "rulecheck:";
    size_t marker = line.find(kMarker, first);
    if (marker == std::string_view::npos) continue;
    size_t open = line.find("allow(", marker + kMarker.size());
    if (open == std::string_view::npos) continue;
    size_t close = line.find(')', open);
    if (close == std::string_view::npos) continue;
    std::string_view ids = line.substr(open + 6, close - open - 6);
    size_t pos = 0;
    while (pos <= ids.size()) {
      size_t comma = ids.find(',', pos);
      if (comma == std::string_view::npos) comma = ids.size();
      std::string_view id = ids.substr(pos, comma - pos);
      size_t id_start = id.find_first_not_of(" \t");
      if (id_start != std::string_view::npos) {
        size_t id_end = id.find_last_not_of(" \t");
        pending.emplace_back(id.substr(id_start, id_end - id_start + 1));
      }
      pos = comma + 1;
    }
  }
  return allows;
}

AnalysisReport AnalyzeRuleProgram(const RuleProgramAst& ast,
                                  const AnalyzerOptions& options) {
  AnalysisReport report;
  report.SetProgramShape(ast.rules.size(), ast.merge_directives.size());
  CheckBlankMerge(ast, options, &report);
  CheckSymmetry(ast, options, &report);
  CheckConditions(ast, options, &report);
  CheckDuplicatesAndSubsumption(ast, options, &report);
  CheckRuleNames(ast, options, &report);
  CheckMergeDirectives(ast, options, &report);
  CheckWindowCoverage(ast, options, &report);
  return report;
}

AnalysisReport AnalyzeRuleSource(std::string_view source,
                                 AnalyzerOptions options) {
  Result<RuleProgramAst> ast = ParseRuleProgram(source);
  if (!ast.ok()) {
    AnalysisReport report;
    report.Add({"parse-error", LintSeverity::kError, 0, "",
                ast.status().message(), ""});
    return report;
  }
  options.allows = ExtractSuppressions(source);
  return AnalyzeRuleProgram(*ast, options);
}

}  // namespace mergepurge
