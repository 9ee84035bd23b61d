// Field predicates behind the rule language's built-ins (transposed,
// initial_match, hyphen_extended, street_number), kept apart so their
// exact definitions can be tested on their own. Inline: the window scan
// calls them once per compared pair.

#ifndef MERGEPURGE_TEXT_PREDICATES_H_
#define MERGEPURGE_TEXT_PREDICATES_H_

#include <cstddef>
#include <string_view>

namespace mergepurge {

// True when y is x with exactly one pair of adjacent, distinct characters
// swapped (SMITH vs SMTIH): one Damerau (OSA) operation that Levenshtein
// needs two substitutions for. False for equal or empty strings. One pass:
// the strings agree up to the first difference at i, cross-match at i and
// i + 1, and agree again from i + 2 on.
inline bool IsAdjacentTransposition(std::string_view x, std::string_view y) {
  if (x.size() != y.size() || x.size() < 2) return false;
  size_t i = 0;
  while (i < x.size() && x[i] == y[i]) ++i;
  if (i + 1 >= x.size()) return false;
  return x[i] == y[i + 1] && x[i + 1] == y[i] &&
         x.substr(i + 2) == y.substr(i + 2);
}

// Both non-empty, and equal or one is the single-letter initial of the
// other (J vs JOHN).
inline bool InitialMatch(std::string_view x, std::string_view y) {
  if (x.empty() || y.empty()) return false;
  if (x == y) return true;
  return (x.size() == 1 && x[0] == y[0]) || (y.size() == 1 && y[0] == x[0]);
}

// One string extends the other by a new ' ' or '-' separated token (SMITH
// vs SMITH-JONES); the shorter needs 4+ characters, so short accidental
// prefixes do not fire.
inline bool HyphenExtended(std::string_view x, std::string_view y) {
  if (x.size() == y.size()) return false;
  std::string_view shorter = x.size() < y.size() ? x : y;
  std::string_view longer = x.size() < y.size() ? y : x;
  if (shorter.size() < 4) return false;
  if (longer.substr(0, shorter.size()) != shorter) return false;
  char next = longer[shorter.size()];
  return next == ' ' || next == '-';
}

// Leading digit run of an address ("123 MAIN ST" -> "123").
inline std::string_view StreetNumber(std::string_view address) {
  size_t i = 0;
  while (i < address.size() && address[i] >= '0' && address[i] <= '9') ++i;
  return address.substr(0, i);
}

}  // namespace mergepurge

#endif  // MERGEPURGE_TEXT_PREDICATES_H_
