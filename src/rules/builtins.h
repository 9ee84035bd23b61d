// The rule language's built-in function table, shared by the compiler
// (rule_program.cc) and the static analyzer (rules/analysis/), and the
// typed evaluators compiled programs call.

#ifndef MERGEPURGE_RULES_BUILTINS_H_
#define MERGEPURGE_RULES_BUILTINS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rules/ast.h"
#include "text/predicates.h"

namespace mergepurge {
namespace rules_internal {

enum class ValueType { kString, kNumber, kBool };

enum class FuncId : uint8_t {
  kSimilarity,
  kEditSimilarity,
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
  kEitherPresent,
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

// True for similarity, edit_similarity and keyboard_similarity, whose
// evaluations on non-empty strings count as rules.distance_calls.
bool IsTypoSimilarity(FuncId func);

// The built-ins by result type: `x`, `y` the string arguments in order,
// `n` the number argument, unused ones ignored. A string result views `x`
// or is built in `*buffer`.
double NumberBuiltin(FuncId func, std::string_view x, std::string_view y,
                     double n);
std::string_view StringBuiltin(FuncId func, std::string_view x, double n,
                               std::string* buffer);

// The boolean built-ins but same_name and sounds_like, which programs
// compare as nickname and Soundex values. Inline: the dispatch loop calls
// it once per predicate leaf.
inline bool PredicateBuiltin(FuncId func, std::string_view x,
                             std::string_view y) {
  switch (func) {
    case FuncId::kEmpty:
      return x.empty();
    case FuncId::kInitialMatch:
      return InitialMatch(x, y);
    case FuncId::kTransposed:
      return IsAdjacentTransposition(x, y);
    case FuncId::kHyphenExtended:
      return HyphenExtended(x, y);
    default:
      return false;
  }
}

}  // namespace rules_internal
}  // namespace mergepurge

#endif  // MERGEPURGE_RULES_BUILTINS_H_
