// Phonetic codes: Soundex and NYSIIS. The equational theory can use phonetic
// equality as a cheap "names sound alike" gate before the more expensive
// edit-distance comparison, and the ablation bench compares phonetic-gated
// matching against pure edit distance (paper §2.3: "phonetic distance").

#ifndef MERGEPURGE_TEXT_PHONETIC_H_
#define MERGEPURGE_TEXT_PHONETIC_H_

#include <string>
#include <string_view>

namespace mergepurge {

// American Soundex: first letter + 3 digits (e.g. "Robert" -> "R163").
// Non-alphabetic characters are ignored; an empty or all-symbol input
// yields an empty code.
std::string Soundex(std::string_view name);

// NYSIIS (New York State Identification and Intelligence System) code,
// truncated to 6 characters as in the original specification.
std::string Nysiis(std::string_view name);

}  // namespace mergepurge

#endif  // MERGEPURGE_TEXT_PHONETIC_H_
