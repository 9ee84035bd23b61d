#include "rules/builtins.h"

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
}  // namespace

const std::vector<FuncSignature>& FunctionTable() {
  static const std::vector<FuncSignature>* table =
      new std::vector<FuncSignature>{
          {"similarity", FuncId::kSimilarity,
           {ValueType::kString, ValueType::kString}, ValueType::kNumber,
           true, kUnit},
          {"edit_distance", FuncId::kEditDistance,
           {ValueType::kString, ValueType::kString}, ValueType::kNumber,
           true, kNonNegative},
          {"damerau", FuncId::kDamerau,
           {ValueType::kString, ValueType::kString}, ValueType::kNumber,
           true, kNonNegative},
          {"keyboard_similarity", FuncId::kKeyboardSimilarity,
           {ValueType::kString, ValueType::kString}, ValueType::kNumber,
           true, kUnit},
          {"soundex", FuncId::kSoundex, {ValueType::kString},
           ValueType::kString},
          {"nysiis", FuncId::kNysiis, {ValueType::kString},
           ValueType::kString},
          {"sounds_like", FuncId::kSoundsLike,
           {ValueType::kString, ValueType::kString}, ValueType::kBool,
           true},
          {"nickname", FuncId::kNickname, {ValueType::kString},
           ValueType::kString},
          {"same_name", FuncId::kSameName,
           {ValueType::kString, ValueType::kString}, ValueType::kBool,
           true},
          {"initial_match", FuncId::kInitialMatch,
           {ValueType::kString, ValueType::kString}, ValueType::kBool,
           true},
          {"transposed", FuncId::kTransposed,
           {ValueType::kString, ValueType::kString}, ValueType::kBool,
           true},
          {"empty", FuncId::kEmpty, {ValueType::kString}, ValueType::kBool},
          {"length", FuncId::kLength, {ValueType::kString},
           ValueType::kNumber, false, kNonNegative},
          {"prefix", FuncId::kPrefix,
           {ValueType::kString, ValueType::kNumber}, ValueType::kString},
          {"digits", FuncId::kDigits, {ValueType::kString},
           ValueType::kString},
          {"street_number", FuncId::kStreetNumber, {ValueType::kString},
           ValueType::kString},
          {"hyphen_extended", FuncId::kHyphenExtended,
           {ValueType::kString, ValueType::kString}, ValueType::kBool,
           true},
          {"jaro_winkler", FuncId::kJaroWinkler,
           {ValueType::kString, ValueType::kString}, ValueType::kNumber,
           true, kUnit},
          {"ngram_similarity", FuncId::kNgramSimilarity,
           {ValueType::kString, ValueType::kString, ValueType::kNumber},
           ValueType::kNumber, true, kUnit},
      };
  return *table;
}

const FuncSignature* FindFunction(std::string_view name) {
  for (const FuncSignature& candidate : FunctionTable()) {
    if (candidate.name == name) return &candidate;
  }
  return nullptr;
}

Value EvalBuiltin(FuncId func, ValueType return_type,
                  const std::vector<Value>& args) {
  Value out;
  out.type = return_type;
  switch (func) {
    case FuncId::kSimilarity:
      out.n = StringSimilarity(args[0].s, args[1].s);
      return out;
    case FuncId::kEditDistance:
      out.n = EditDistance(args[0].s, args[1].s);
      return out;
    case FuncId::kDamerau:
      out.n = DamerauDistance(args[0].s, args[1].s);
      return out;
    case FuncId::kKeyboardSimilarity:
      out.n = KeyboardSimilarity(args[0].s, args[1].s);
      return out;
    case FuncId::kSoundex:
      out.s = Soundex(args[0].s);
      return out;
    case FuncId::kNysiis:
      out.s = Nysiis(args[0].s);
      return out;
    case FuncId::kSoundsLike:
      out.b = SoundsAlikeSoundex(args[0].s, args[1].s);
      return out;
    case FuncId::kNickname:
      out.s = NicknameTable::Default().Canonicalize(args[0].s);
      return out;
    case FuncId::kSameName:
      out.b = NicknameTable::Default().SameCanonicalName(args[0].s,
                                                         args[1].s);
      return out;
    case FuncId::kInitialMatch:
      out.b = InitialMatch(args[0].s, args[1].s);
      return out;
    case FuncId::kTransposed:
      out.b = IsAdjacentTransposition(args[0].s, args[1].s);
      return out;
    case FuncId::kEmpty:
      out.b = args[0].s.empty();
      return out;
    case FuncId::kLength:
      out.n = static_cast<double>(args[0].s.size());
      return out;
    case FuncId::kPrefix:
      out.s = std::string(Prefix(args[0].s, static_cast<size_t>(args[1].n)));
      return out;
    case FuncId::kDigits: {
      for (char c : args[0].s) {
        if (c >= '0' && c <= '9') out.s += c;
      }
      return out;
    }
    case FuncId::kStreetNumber:
      out.s = std::string(StreetNumber(args[0].s));
      return out;
    case FuncId::kJaroWinkler:
      out.n = JaroWinklerSimilarity(args[0].s, args[1].s);
      return out;
    case FuncId::kNgramSimilarity:
      out.n = NgramSimilarity(args[0].s, args[1].s,
                              static_cast<size_t>(args[2].n));
      return out;
    case FuncId::kHyphenExtended:
      out.b = HyphenExtended(args[0].s, args[1].s);
      return out;
  }
  return out;
}

bool CompareValues(CompareOp op, const Value& lhs, const Value& rhs) {
  int cmp;
  if (lhs.type == ValueType::kString) {
    cmp = lhs.s.compare(rhs.s);
  } else if (lhs.type == ValueType::kNumber) {
    cmp = lhs.n < rhs.n ? -1 : (lhs.n > rhs.n ? 1 : 0);
  } else {
    cmp = (lhs.b == rhs.b) ? 0 : (lhs.b ? 1 : -1);
  }
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

}  // namespace rules_internal
}  // namespace mergepurge
