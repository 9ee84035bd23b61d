#include "rules/builtins.h"

#include <algorithm>
#include <limits>

#include "text/edit_distance.h"
#include "text/jaro_winkler.h"
#include "text/keyboard_distance.h"
#include "text/nicknames.h"
#include "text/phonetic.h"
#include "text/predicates.h"
#include "util/string_util.h"

namespace mergepurge {
namespace rules_internal {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr NumericRange kUnit{0.0, 1.0};
constexpr NumericRange kNonNegative{0.0, kInf};
constexpr ValueType S = ValueType::kString;
constexpr ValueType N = ValueType::kNumber;
constexpr ValueType B = ValueType::kBool;
}  // namespace

const std::vector<FuncSignature>& FunctionTable() {
  // name, id, argument types, result type, symmetric, result range.
  static const std::vector<FuncSignature>* table =
      new std::vector<FuncSignature>{
          {"similarity", FuncId::kSimilarity, {S, S}, N, true, kUnit},
          {"edit_similarity", FuncId::kEditSimilarity, {S, S}, N, true,
           kUnit},
          {"edit_distance", FuncId::kEditDistance, {S, S}, N, true,
           kNonNegative},
          {"damerau", FuncId::kDamerau, {S, S}, N, true, kNonNegative},
          {"keyboard_similarity", FuncId::kKeyboardSimilarity, {S, S}, N,
           true, kUnit},
          {"soundex", FuncId::kSoundex, {S}, S, false, {}},
          {"nysiis", FuncId::kNysiis, {S}, S, false, {}},
          {"sounds_like", FuncId::kSoundsLike, {S, S}, B, true, {}},
          {"nickname", FuncId::kNickname, {S}, S, false, {}},
          {"same_name", FuncId::kSameName, {S, S}, B, true, {}},
          {"initial_match", FuncId::kInitialMatch, {S, S}, B, true, {}},
          {"transposed", FuncId::kTransposed, {S, S}, B, true, {}},
          {"empty", FuncId::kEmpty, {S}, B, false, {}},
          {"either_present", FuncId::kEitherPresent, {S, S}, N, true,
           kUnit},
          {"length", FuncId::kLength, {S}, N, false, kNonNegative},
          {"prefix", FuncId::kPrefix, {S, N}, S, false, {}},
          {"digits", FuncId::kDigits, {S}, S, false, {}},
          {"street_number", FuncId::kStreetNumber, {S}, S, false, {}},
          {"hyphen_extended", FuncId::kHyphenExtended, {S, S}, B, true, {}},
          {"jaro_winkler", FuncId::kJaroWinkler, {S, S}, N, true, kUnit},
          {"ngram_similarity", FuncId::kNgramSimilarity, {S, S, N}, N, true,
           kUnit},
      };
  return *table;
}

const FuncSignature* FindFunction(std::string_view name) {
  for (const FuncSignature& candidate : FunctionTable()) {
    if (candidate.name == name) return &candidate;
  }
  return nullptr;
}

bool IsTypoSimilarity(FuncId func) {
  return func == FuncId::kSimilarity || func == FuncId::kEditSimilarity ||
         func == FuncId::kKeyboardSimilarity;
}

double NumberBuiltin(FuncId func, std::string_view x, std::string_view y,
                     double n) {
  switch (func) {
    case FuncId::kSimilarity:
      return StringSimilarity(x, y);
    case FuncId::kEditSimilarity: {
      const size_t longest = std::max(x.size(), y.size());
      if (longest == 0) return 1.0;
      return 1.0 - static_cast<double>(EditDistance(x, y)) /
                       static_cast<double>(longest);
    }
    case FuncId::kEditDistance:
      return EditDistance(x, y);
    case FuncId::kDamerau:
      return DamerauDistance(x, y);
    case FuncId::kKeyboardSimilarity:
      return KeyboardSimilarity(x, y);
    case FuncId::kEitherPresent:
      return x.empty() && y.empty() ? 0.0 : 1.0;
    case FuncId::kLength:
      return static_cast<double>(x.size());
    case FuncId::kJaroWinkler:
      return JaroWinklerSimilarity(x, y);
    case FuncId::kNgramSimilarity:
      return NgramSimilarity(x, y, static_cast<size_t>(n));
    default:
      return 0.0;
  }
}

std::string_view StringBuiltin(FuncId func, std::string_view x, double n,
                               std::string* buffer) {
  switch (func) {
    case FuncId::kSoundex:
      *buffer = Soundex(x);
      return *buffer;
    case FuncId::kNysiis:
      *buffer = Nysiis(x);
      return *buffer;
    case FuncId::kNickname:
      *buffer = NicknameTable::Default().Canonicalize(x);
      return *buffer;
    case FuncId::kPrefix:
      return Prefix(x, static_cast<size_t>(n));
    case FuncId::kDigits:
      buffer->clear();
      for (char c : x) {
        if (c >= '0' && c <= '9') *buffer += c;
      }
      return *buffer;
    case FuncId::kStreetNumber:
      return StreetNumber(x);
    default:
      return {};
  }
}

}  // namespace rules_internal
}  // namespace mergepurge
