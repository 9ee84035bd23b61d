// The rule language's built-in function table and evaluator, shared by the
// compiler/interpreter (rule_program.cc) and the static analyzer
// (rules/analysis/). The analyzer's constant evaluation (the blank-record
// probe behind the blank-merge lint) runs through the interpreter itself,
// EvaluateOnBlankRecords below, so it can never drift from runtime
// semantics.

#ifndef MERGEPURGE_RULES_BUILTINS_H_
#define MERGEPURGE_RULES_BUILTINS_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rules/ast.h"

namespace mergepurge {
namespace rules_internal {

enum class ValueType { kString, kNumber, kBool };

enum class FuncId {
  kSimilarity,
  kEditDistance,
  kDamerau,
  kKeyboardSimilarity,
  kSoundex,
  kNysiis,
  kSoundsLike,
  kNickname,
  kSameName,
  kInitialMatch,
  kTransposed,
  kEmpty,
  kLength,
  kPrefix,
  kDigits,
  kStreetNumber,
  kHyphenExtended,
  kJaroWinkler,
  kNgramSimilarity,
};

// Output range of a number-returning built-in; both bounds attainable
// except hi == infinity (unbounded distances / lengths).
struct NumericRange {
  double lo = 0.0;
  double hi = 0.0;
};

struct FuncSignature {
  const char* name;
  FuncId id;
  std::vector<ValueType> arg_types;
  ValueType return_type;
  // True when swapping the function's two string arguments cannot change
  // the result (the analyzer's symmetry normalization sorts such args).
  bool symmetric = false;
  // Valid when return_type == kNumber.
  NumericRange range;
};

const std::vector<FuncSignature>& FunctionTable();

// Lookup by source name; nullptr when unknown.
const FuncSignature* FindFunction(std::string_view name);

// A runtime value (also the analyzer's constant-evaluation domain).
struct Value {
  ValueType type = ValueType::kBool;
  std::string s;
  double n = 0.0;
  bool b = false;
};

// Evaluates a built-in on fully evaluated arguments. `args` must match the
// signature's arity and types (the compiler guarantees this; the analyzer
// checks before calling).
Value EvalBuiltin(FuncId func, ValueType return_type,
                  const std::vector<Value>& args);

// Evaluates `lhs op rhs`; both values must have the same type (booleans
// only support == and !=, which the compiler and analyzer both enforce).
bool CompareValues(CompareOp op, const Value& lhs, const Value& rhs);

// Compiles `condition` with the interpreter's compiler, against a schema of
// the field names it references, and evaluates it on two records whose
// fields are all empty; nullopt when it does not compile. Defined in
// rule_program.cc.
std::optional<bool> EvaluateOnBlankRecords(const BoolExpr& condition);

}  // namespace rules_internal
}  // namespace mergepurge

#endif  // MERGEPURGE_RULES_BUILTINS_H_
