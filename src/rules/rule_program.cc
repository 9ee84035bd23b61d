#include "rules/rule_program.h"

#include <cassert>
#include <memory>
#include <set>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "rules/analysis/analyzer.h"
#include "rules/ast.h"
#include "rules/builtins.h"
#include "rules/parser.h"
#include "util/string_util.h"

namespace mergepurge {

namespace rules_internal {

// Compiled value expression: fully resolved and statically typed.
struct CExpr {
  ExprKind kind = ExprKind::kNumberLiteral;
  ValueType type = ValueType::kNumber;
  // Literals.
  std::string string_value;
  double number_value = 0.0;
  // Field refs.
  int record_index = 0;
  FieldId field_id = kInvalidField;
  // Calls.
  FuncId func = FuncId::kEmpty;
  std::vector<CExpr> args;
};

// Compiled boolean expression.
struct CBool {
  BoolKind kind = BoolKind::kBare;
  std::vector<CBool> children;    // kAnd / kOr / kNot.
  CExpr lhs;                      // kCompare / kBare.
  CompareOp op = CompareOp::kEq;  // kCompare.
  CExpr rhs;                      // kCompare.
};

struct CRule {
  std::string name;
  CBool condition;
};

struct CompiledProgram {
  std::vector<CRule> rules;
  PurgePolicy purge_policy;
};

namespace {

std::string_view FieldOf(const Record& a, const Record& b,
                         const CExpr& expr) {
  return expr.record_index == 1 ? a.field(expr.field_id)
                                : b.field(expr.field_id);
}

Value Evaluate(const CExpr& expr, const Record& a, const Record& b) {
  Value out;
  out.type = expr.type;
  switch (expr.kind) {
    case ExprKind::kStringLiteral:
      out.s = expr.string_value;
      return out;
    case ExprKind::kNumberLiteral:
      out.n = expr.number_value;
      return out;
    case ExprKind::kFieldRef:
      out.s = std::string(FieldOf(a, b, expr));
      return out;
    case ExprKind::kFuncCall:
      break;
  }

  std::vector<Value> args;
  args.reserve(expr.args.size());
  for (const CExpr& arg : expr.args) args.push_back(Evaluate(arg, a, b));
  return EvalBuiltin(expr.func, expr.type, args);
}

bool EvaluateBool(const CBool& node, const Record& a, const Record& b) {
  switch (node.kind) {
    case BoolKind::kAnd:
      for (const CBool& child : node.children) {
        if (!EvaluateBool(child, a, b)) return false;
      }
      return true;
    case BoolKind::kOr:
      for (const CBool& child : node.children) {
        if (EvaluateBool(child, a, b)) return true;
      }
      return false;
    case BoolKind::kNot:
      return !EvaluateBool(node.children[0], a, b);
    case BoolKind::kCompare: {
      Value lhs = Evaluate(node.lhs, a, b);
      Value rhs = Evaluate(node.rhs, a, b);
      return CompareValues(node.op, lhs, rhs);
    }
    case BoolKind::kBare:
      return Evaluate(node.lhs, a, b).b;
  }
  return false;
}

// --- Compilation (resolution + static type check). ---

Result<CExpr> CompileExpr(const Expr& expr, const Schema& schema) {
  CExpr out;
  out.kind = expr.kind;
  switch (expr.kind) {
    case ExprKind::kStringLiteral:
      out.type = ValueType::kString;
      out.string_value = expr.string_value;
      return out;
    case ExprKind::kNumberLiteral:
      out.type = ValueType::kNumber;
      out.number_value = expr.number_value;
      return out;
    case ExprKind::kFieldRef: {
      Result<FieldId> field = schema.RequireField(expr.field_name);
      if (!field.ok()) return field.status();
      out.type = ValueType::kString;
      out.record_index = expr.record_index;
      out.field_id = *field;
      return out;
    }
    case ExprKind::kFuncCall:
      break;
  }

  const FuncSignature* signature = FindFunction(expr.func_name);
  if (signature == nullptr) {
    return Status::ParseError("unknown function '" + expr.func_name + "'");
  }
  if (expr.args.size() != signature->arg_types.size()) {
    return Status::ParseError(StringPrintf(
        "function '%s' takes %zu arguments, got %zu", expr.func_name.c_str(),
        signature->arg_types.size(), expr.args.size()));
  }
  out.type = signature->return_type;
  out.func = signature->id;
  for (size_t i = 0; i < expr.args.size(); ++i) {
    Result<CExpr> arg = CompileExpr(*expr.args[i], schema);
    if (!arg.ok()) return arg.status();
    if (arg->type != signature->arg_types[i]) {
      return Status::ParseError(
          StringPrintf("argument %zu of '%s' has the wrong type", i + 1,
                       expr.func_name.c_str()));
    }
    out.args.push_back(std::move(*arg));
  }
  return out;
}

Result<CBool> CompileBool(const BoolExpr& node, const Schema& schema,
                          const std::string& rule_name) {
  CBool out;
  out.kind = node.kind;
  switch (node.kind) {
    case BoolKind::kAnd:
    case BoolKind::kOr:
    case BoolKind::kNot:
      for (const std::unique_ptr<BoolExpr>& child : node.children) {
        Result<CBool> compiled = CompileBool(*child, schema, rule_name);
        if (!compiled.ok()) return compiled.status();
        out.children.push_back(std::move(*compiled));
      }
      return out;
    case BoolKind::kCompare: {
      Result<CExpr> lhs = CompileExpr(*node.lhs, schema);
      if (!lhs.ok()) return lhs.status();
      Result<CExpr> rhs = CompileExpr(*node.rhs, schema);
      if (!rhs.ok()) return rhs.status();
      if (lhs->type != rhs->type) {
        return Status::ParseError("rule '" + rule_name +
                                  "': comparison between different types");
      }
      if (lhs->type == ValueType::kBool &&
          !(node.op == CompareOp::kEq || node.op == CompareOp::kNe)) {
        return Status::ParseError("rule '" + rule_name +
                                  "': booleans only support == and !=");
      }
      out.lhs = std::move(*lhs);
      out.op = node.op;
      out.rhs = std::move(*rhs);
      return out;
    }
    case BoolKind::kBare: {
      Result<CExpr> lhs = CompileExpr(*node.lhs, schema);
      if (!lhs.ok()) return lhs.status();
      if (lhs->type != ValueType::kBool) {
        return Status::ParseError(
            "rule '" + rule_name +
            "': bare condition must be boolean-valued");
      }
      out.lhs = std::move(*lhs);
      return out;
    }
  }
  return Status::Internal("unreachable");
}

void CollectFieldNames(const Expr& expr, std::set<std::string>* names) {
  if (expr.kind == ExprKind::kFieldRef) names->insert(expr.field_name);
  for (const std::unique_ptr<Expr>& arg : expr.args) {
    CollectFieldNames(*arg, names);
  }
}

void CollectFieldNames(const BoolExpr& node, std::set<std::string>* names) {
  for (const std::unique_ptr<BoolExpr>& child : node.children) {
    CollectFieldNames(*child, names);
  }
  if (node.lhs != nullptr) CollectFieldNames(*node.lhs, names);
  if (node.rhs != nullptr) CollectFieldNames(*node.rhs, names);
}

}  // namespace

std::optional<bool> EvaluateOnBlankRecords(const BoolExpr& condition) {
  std::set<std::string> names;
  CollectFieldNames(condition, &names);
  const Schema schema(std::vector<std::string>(names.begin(), names.end()));
  Result<CBool> compiled = CompileBool(condition, schema, "");
  if (!compiled.ok()) return std::nullopt;
  const Record blank;  // Every field reads as "".
  return EvaluateBool(*compiled, blank, blank);
}

}  // namespace rules_internal

using rules_internal::CompiledProgram;

Result<RuleProgram> RuleProgram::Compile(std::string_view source,
                                         const Schema& schema,
                                         AnalysisReport* analysis) {
  Result<RuleProgramAst> ast = ParseRuleProgram(source);
  if (!ast.ok()) return ast.status();

  if (analysis != nullptr) {
    AnalyzerOptions options;
    options.allows = ExtractSuppressions(source);
    *analysis = AnalyzeRuleProgram(*ast, options);
  }

  auto program = std::make_shared<CompiledProgram>();
  for (const MergeDirective& directive : ast->merge_directives) {
    Result<FieldId> field = schema.RequireField(directive.field_name);
    if (!field.ok()) return field.status();
    Result<MergeStrategy> strategy =
        MergeStrategyFromName(directive.strategy_name);
    if (!strategy.ok()) return strategy.status();
    program->purge_policy.Set(*field, *strategy);
  }
  program->rules.reserve(ast->rules.size());
  for (const Rule& rule : ast->rules) {
    rules_internal::CRule compiled_rule;
    compiled_rule.name = rule.name;
    Result<rules_internal::CBool> condition =
        rules_internal::CompileBool(*rule.condition, schema, rule.name);
    if (!condition.ok()) return condition.status();
    compiled_rule.condition = std::move(*condition);
    program->rules.push_back(std::move(compiled_rule));
  }
  return RuleProgram(std::move(program));
}

RuleProgram::RuleProgram(
    std::shared_ptr<const rules_internal::CompiledProgram> program)
    : program_(std::move(program)),
      rule_fire_counts_(program_->rules.size(), 0),
      flushed_fire_counts_(program_->rules.size(), 0) {}

RuleProgram::RuleProgram(const RuleProgram& other)
    : program_(other.program_),
      rule_fire_counts_(program_->rules.size(), 0),
      flushed_fire_counts_(program_->rules.size(), 0) {}

RuleProgram& RuleProgram::operator=(const RuleProgram& other) {
  program_ = other.program_;
  comparison_count_ = 0;
  rule_fire_counts_.assign(program_->rules.size(), 0);
  flushed_fire_counts_.assign(program_->rules.size(), 0);
  return *this;
}

void RuleProgram::FlushMetrics() const {
  // Rule names vary per program, so handles cannot be cached in statics;
  // flushes happen once per pass/commit, not per comparison.
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (size_t i = 0; i < rule_fire_counts_.size(); ++i) {
    uint64_t delta = rule_fire_counts_[i] - flushed_fire_counts_[i];
    if (delta == 0) continue;
    registry
        .GetCounter(std::string(metric_names::kRulesFiredPrefix) +
                    program_->rules[i].name)
        ->Add(delta);
    flushed_fire_counts_[i] = rule_fire_counts_[i];
  }
}

RuleProgram::~RuleProgram() = default;

int RuleProgram::MatchingRule(const Record& a, const Record& b) const {
  ++comparison_count_;
  for (size_t i = 0; i < program_->rules.size(); ++i) {
    if (rules_internal::EvaluateBool(program_->rules[i].condition, a, b)) {
      ++rule_fire_counts_[i];
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool RuleProgram::Matches(const Record& a, const Record& b) const {
  return MatchingRule(a, b) >= 0;
}

size_t RuleProgram::num_rules() const { return program_->rules.size(); }

const std::string& RuleProgram::rule_name(size_t index) const {
  return program_->rules[index].name;
}

const PurgePolicy& RuleProgram::purge_policy() const {
  return program_->purge_policy;
}

}  // namespace mergepurge
