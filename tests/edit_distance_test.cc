#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "text/edit_distance.h"
#include "util/random.h"

namespace mergepurge {
namespace {

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("abc", ""), 3);
  EXPECT_EQ(EditDistance("", "abc"), 3);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2);
  EXPECT_EQ(EditDistance("same", "same"), 0);
}

TEST(EditDistanceTest, TranspositionCostsTwoInLevenshtein) {
  EXPECT_EQ(EditDistance("ab", "ba"), 2);
}

TEST(DamerauTest, TranspositionCostsOne) {
  EXPECT_EQ(DamerauDistance("ab", "ba"), 1);
  EXPECT_EQ(DamerauDistance("SMITH", "SMIHT"), 1);
  EXPECT_EQ(DamerauDistance("193456782", "913456782"), 1);
}

TEST(DamerauTest, MatchesLevenshteinWithoutTranspositions) {
  EXPECT_EQ(DamerauDistance("kitten", "sitting"), 3);
  EXPECT_EQ(DamerauDistance("abc", ""), 3);
}

TEST(BoundedTest, ExactWithinBound) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 3), 3);
  EXPECT_EQ(BoundedDamerauDistance("ab", "ba", 1), 1);
}

TEST(BoundedTest, ExceedsBoundReturnsBoundPlusOne) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 2), 3);
  EXPECT_EQ(BoundedEditDistance("aaaa", "bbbb", 1), 2);
}

TEST(BoundedTest, LengthGapShortCircuits) {
  EXPECT_EQ(BoundedEditDistance("a", "abcdefg", 2), 3);
}

TEST(SimilarityTest, Range) {
  EXPECT_DOUBLE_EQ(StringSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(StringSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(StringSimilarity("abc", ""), 0.0);
  EXPECT_NEAR(StringSimilarity("MICHAEL", "MICHAL"), 1.0 - 1.0 / 7.0, 1e-9);
}

// Property tests over random string pairs.
class DistancePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

std::string RandomString(Rng* rng, int max_len) {
  int len = static_cast<int>(rng->NextBounded(max_len + 1));
  std::string s;
  for (int i = 0; i < len; ++i) {
    s += static_cast<char>('a' + rng->NextBounded(4));  // Small alphabet.
  }
  return s;
}

TEST_P(DistancePropertyTest, InvariantsHold) {
  auto [seed, max_len] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  for (int trial = 0; trial < 300; ++trial) {
    std::string a = RandomString(&rng, max_len);
    std::string b = RandomString(&rng, max_len);
    std::string c = RandomString(&rng, max_len);

    int lev = EditDistance(a, b);
    int dam = DamerauDistance(a, b);

    // Symmetry.
    EXPECT_EQ(lev, EditDistance(b, a));
    EXPECT_EQ(dam, DamerauDistance(b, a));
    // Identity of indiscernibles.
    EXPECT_EQ(lev == 0, a == b);
    EXPECT_EQ(dam == 0, a == b);
    // Damerau never exceeds Levenshtein; Levenshtein <= 2 * Damerau (OSA).
    EXPECT_LE(dam, lev);
    EXPECT_LE(lev, 2 * dam);
    // Length difference lower bound, max length upper bound.
    int len_gap = static_cast<int>(a.size()) - static_cast<int>(b.size());
    if (len_gap < 0) len_gap = -len_gap;
    EXPECT_GE(dam, len_gap);
    EXPECT_LE(lev, static_cast<int>(std::max(a.size(), b.size())));
    // Levenshtein triangle inequality.
    EXPECT_LE(EditDistance(a, c),
              EditDistance(a, b) + EditDistance(b, c));

    // Bounded versions agree with full versions for every bound.
    for (int bound = 0; bound <= max_len; ++bound) {
      int be = BoundedEditDistance(a, b, bound);
      int bd = BoundedDamerauDistance(a, b, bound);
      EXPECT_EQ(be, lev <= bound ? lev : bound + 1)
          << "a=" << a << " b=" << b << " bound=" << bound;
      EXPECT_EQ(bd, dam <= bound ? dam : bound + 1)
          << "a=" << a << " b=" << b << " bound=" << bound;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DistancePropertyTest,
    ::testing::Values(std::make_tuple(1, 6), std::make_tuple(2, 10),
                      std::make_tuple(3, 14), std::make_tuple(4, 3),
                      std::make_tuple(5, 20)));

// Oracle for the differential tests: the textbook rolling-row DP, with the
// OSA transposition case when asked. Independent of the library's kernel.
int OracleDistance(std::string_view a, std::string_view b,
                   bool transpositions) {
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<int> prev2(m + 1), prev(m + 1), curr(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    curr[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      int cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + cost});
      if (transpositions && i > 1 && j > 1 && a[i - 1] == b[j - 2] &&
          a[i - 2] == b[j - 1]) {
        curr[j] = std::min(curr[j], prev2[j - 2] + 1);
      }
    }
    std::swap(prev2, prev);
    std::swap(prev, curr);
  }
  return prev[m];
}

// One character of one of three alphabets: two letters (long shared runs,
// many transpositions), eight letters, and bytes >= 0x80 (the kernel
// indexes its match table by unsigned char).
char KernelChar(Rng* rng, int alphabet) {
  switch (alphabet) {
    case 0: return static_cast<char>('A' + rng->NextBounded(2));
    case 1: return static_cast<char>('A' + rng->NextBounded(8));
    default: return static_cast<char>(0x80 + rng->NextBounded(4));
  }
}

// Random string of length 0..70, so both sides of the 64-byte switch occur.
std::string KernelString(Rng* rng, int alphabet) {
  std::string s(rng->NextBounded(71), '\0');
  for (char& c : s) c = KernelChar(rng, alphabet);
  return s;
}

// b derived from a by up to three random edits, so small distances (the
// ones bounds 0..5 decide) are common even for long strings.
std::string Mutate(Rng* rng, std::string a, int alphabet) {
  const int edits = static_cast<int>(rng->NextBounded(4));
  for (int e = 0; e < edits; ++e) {
    const char c = KernelChar(rng, alphabet);
    const size_t pos = a.empty() ? 0 : rng->NextBounded(a.size());
    switch (rng->NextBounded(4)) {
      case 0: a.insert(a.begin() + pos, c); break;
      case 1: if (!a.empty()) a.erase(a.begin() + pos); break;
      case 2: if (!a.empty()) a[pos] = c; break;
      default:
        if (pos + 1 < a.size()) std::swap(a[pos], a[pos + 1]);
        break;
    }
  }
  return a;
}

class KernelDifferentialTest : public ::testing::TestWithParam<int> {};

// Every distance function against the oracle, across the 64-byte switch
// between the bit-parallel kernel and its DP fallback.
TEST_P(KernelDifferentialTest, MatchesRollingRowDp) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  int beyond_word = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const int alphabet = trial % 3;
    const std::string a = KernelString(&rng, alphabet);
    const std::string b = (trial % 2 == 0) ? Mutate(&rng, a, alphabet)
                                           : KernelString(&rng, alphabet);
    if (std::min(a.size(), b.size()) > 64) ++beyond_word;
    const int lev = OracleDistance(a, b, /*transpositions=*/false);
    const int osa = OracleDistance(a, b, /*transpositions=*/true);
    ASSERT_EQ(EditDistance(a, b), lev) << a << " / " << b;
    ASSERT_EQ(DamerauDistance(a, b), osa) << a << " / " << b;
    for (int k : {-1, 0, 1, 2, 3, 5}) {
      const int want_lev = k < 0 ? 0 : std::min(lev, k + 1);
      const int want_osa = k < 0 ? 0 : std::min(osa, k + 1);
      ASSERT_EQ(BoundedEditDistance(a, b, k), want_lev)
          << a << " / " << b << " k=" << k;
      ASSERT_EQ(BoundedDamerauDistance(a, b, k), want_osa)
          << a << " / " << b << " k=" << k;
    }
  }
  EXPECT_GT(beyond_word, 0);  // The fallback was exercised.
}

// The step of the bounded distances' cascade (edit_distance.cc) that
// decides a call, worked out here from the oracle's view of the strings.
enum CascadeStep {
  kNegativeBound,
  kLengthGap,
  kEmptyRemainder,
  kBoundZero,
  kSingleEditCheck,
  kPresenceMask,
  kKernel,
  kNumCascadeSteps
};

// Half the differing bits of the two byte-presence masks, rounded up: one
// edit flips at most two bits and a transposition none.
int MaskBound(std::string_view a, std::string_view b) {
  uint64_t mask_a = 0;
  uint64_t mask_b = 0;
  for (unsigned char c : a) mask_a |= uint64_t{1} << (c & 63);
  for (unsigned char c : b) mask_b |= uint64_t{1} << (c & 63);
  return (std::popcount(mask_a ^ mask_b) + 1) / 2;
}

CascadeStep DecidingStep(std::string_view a, std::string_view b, int k) {
  if (k < 0) return kNegativeBound;
  const size_t gap = a.size() > b.size() ? a.size() - b.size()
                                         : b.size() - a.size();
  if (gap > static_cast<size_t>(k)) return kLengthGap;
  while (!a.empty() && !b.empty() && a.front() == b.front()) {
    a.remove_prefix(1);
    b.remove_prefix(1);
  }
  if (a.empty() || b.empty()) return kEmptyRemainder;
  if (k == 0) return kBoundZero;
  if (k == 1) return kSingleEditCheck;
  if (MaskBound(a, b) > k) return kPresenceMask;
  return kKernel;
}

// Random string over `alphabet` of length [min_len, max_len].
std::string CascadeString(Rng* rng, std::string_view alphabet, int min_len,
                          int max_len) {
  std::string s(rng->NextInt(min_len, max_len), '\0');
  for (char& c : s) c = alphabet[rng->NextBounded(alphabet.size())];
  return s;
}

// `s` after one edit at a random position: an insertion, a deletion, a
// substitution or a swap of two differing neighbours.
std::string SingleEdit(Rng* rng, std::string s) {
  const size_t pos = rng->NextBounded(s.size());
  switch (rng->NextBounded(4)) {
    case 0: s.insert(s.begin() + pos, 'Z'); break;
    case 1: s.erase(s.begin() + pos); break;
    case 2: s[pos] = 'Z'; break;
    default:
      if (pos + 1 < s.size() && s[pos] != s[pos + 1]) {
        std::swap(s[pos], s[pos + 1]);
      } else {
        s[pos] = 'Z';
      }
  }
  return s;
}

// Pairs aimed at each step of the cascade, checked against the oracle for
// every bound through both entry points: the one that computes the masks
// of the remainders, and the one that takes the caller's masks of the
// whole strings. Each step a bound can reach must decide at least one
// pair, and the caller's masks must decide some pairs on their own.
TEST_P(KernelDifferentialTest, CascadeStepsMatchOracle) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
  // 'A' (0x41) and 0x81 share mask bit 1, 'B' and 0x82 bit 2.
  const std::string colliding = "AB\x81\x82";
  const std::string letters = "ABCDEFGH";
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int trial = 0; trial < 200; ++trial) {
    // Bytes that collide in the mask: the bound sees fewer differences.
    pairs.emplace_back(CascadeString(&rng, colliding, 0, 12),
                       CascadeString(&rng, colliding, 0, 12));
    // Unrelated words over many letters: the mask bound rules them out.
    pairs.emplace_back(CascadeString(&rng, letters + "IJKLMNOPQRST", 5, 9),
                       CascadeString(&rng, letters + "IJKLMNOPQRST", 5, 9));
    // Distinct letters, every other one replaced by a fresh letter: the
    // mask bound equals the distance.
    std::string distinct = letters;
    for (size_t i = distinct.size(); i > 1; --i) {
      std::swap(distinct[i - 1], distinct[rng.NextBounded(i)]);
    }
    distinct.resize(rng.NextInt(4, 8));
    std::string replaced = distinct;
    for (size_t i = 0; i < replaced.size(); i += 2) replaced[i] = "UVWX"[i / 2];
    pairs.emplace_back(distinct, replaced);
    // Long shared prefix and suffix around a single edit.
    const std::string prefix = CascadeString(&rng, letters, 10, 40);
    const std::string suffix = CascadeString(&rng, letters, 10, 40);
    const std::string core = CascadeString(&rng, letters, 1, 3);
    pairs.emplace_back(prefix + core + suffix,
                       prefix + SingleEdit(&rng, core) + suffix);
    // Near misses: one edit at the first or the last byte, then two edits.
    std::string word = CascadeString(&rng, letters, 2, 10);
    std::string first = word;
    first[0] = first[0] == 'A' ? 'B' : 'A';
    std::string last = word;
    last.back() = last.back() == 'A' ? 'B' : 'A';
    std::string both = first;
    both.back() = both.back() == 'A' ? 'B' : 'A';
    pairs.emplace_back(word, first);
    pairs.emplace_back(word, last);
    pairs.emplace_back(word, word.substr(1));
    pairs.emplace_back(word, word.substr(0, word.size() - 1));
    pairs.emplace_back(word, both);
    pairs.emplace_back(word, "X" + word.substr(1) + "Y");
    // A transposition right after the stripped prefix.
    std::string swapped = prefix + core + "CD" + suffix;
    pairs.emplace_back(swapped, prefix + core + "DC" + suffix);
    // Empty remainders: one string a prefix of the other.
    pairs.emplace_back(word, word + CascadeString(&rng, letters, 0, 6));
  }
  int decided[6][kNumCascadeSteps] = {};
  int decided_by_caller_masks = 0;
  const int bounds[6] = {-1, 0, 1, 2, 3, 5};
  for (const auto& [a, b] : pairs) {
    const int lev = OracleDistance(a, b, /*transpositions=*/false);
    const int osa = OracleDistance(a, b, /*transpositions=*/true);
    ASSERT_LE(MaskBound(a, b), osa) << a << " / " << b;
    const uint64_t mask_a = PresenceMask(a);
    const uint64_t mask_b = PresenceMask(b);
    // The whole strings' masks bound the distance too.
    const int whole_bound = (std::popcount(mask_a ^ mask_b) + 1) / 2;
    ASSERT_LE(whole_bound, osa) << a << " / " << b;
    for (int i = 0; i < 6; ++i) {
      const int k = bounds[i];
      const int want_lev = k < 0 ? 0 : std::min(lev, k + 1);
      const int want_osa = k < 0 ? 0 : std::min(osa, k + 1);
      ASSERT_EQ(BoundedEditDistance(a, b, k), want_lev)
          << a << " / " << b << " k=" << k;
      ASSERT_EQ(BoundedDamerauDistance(a, b, k), want_osa)
          << a << " / " << b << " k=" << k;
      ASSERT_EQ(BoundedDamerauDistance(b, a, k),
                BoundedDamerauDistance(a, b, k));
      ASSERT_EQ(BoundedEditDistance(a, b, k, mask_a, mask_b), want_lev)
          << a << " / " << b << " k=" << k << " (caller's masks)";
      ASSERT_EQ(BoundedDamerauDistance(a, b, k, mask_a, mask_b), want_osa)
          << a << " / " << b << " k=" << k << " (caller's masks)";
      ASSERT_EQ(BoundedDamerauDistance(b, a, k, mask_b, mask_a), want_osa)
          << b << " / " << a << " k=" << k << " (caller's masks)";
      const CascadeStep step = DecidingStep(a, b, k);
      ++decided[i][step];
      if ((step == kPresenceMask || step == kKernel) && whole_bound > k) {
        ++decided_by_caller_masks;
      }
    }
  }
  EXPECT_GT(decided_by_caller_masks, 0);
  for (int i = 0; i < 6; ++i) {
    const int k = bounds[i];
    std::vector<CascadeStep> reachable;
    if (k < 0) {
      reachable = {kNegativeBound};
    } else {
      reachable = {kLengthGap, kEmptyRemainder};
      if (k == 0) reachable.push_back(kBoundZero);
      if (k == 1) reachable.push_back(kSingleEditCheck);
      if (k >= 2) reachable.insert(reachable.end(), {kPresenceMask, kKernel});
    }
    for (CascadeStep step : reachable) {
      EXPECT_GT(decided[i][step], 0) << "k=" << k << " step=" << step;
    }
  }
}

TEST(KernelBoundaryTest, WordBoundaryLengths) {
  // Pattern lengths 63, 64 and 65 around the kernel switch, against a
  // one-swap, one-substitution and one-insertion variant.
  for (size_t len : {63u, 64u, 65u}) {
    std::string a(len, 'A');
    for (size_t i = 0; i < len; ++i) a[i] = static_cast<char>('A' + i % 7);
    std::string swapped = a;
    std::swap(swapped[len - 2], swapped[len - 1]);
    std::string substituted = a;
    substituted[len / 2] = '\xff';
    std::string inserted = a;
    inserted.insert(inserted.begin(), '\x80');
    for (const std::string& b : {a, swapped, substituted, inserted}) {
      EXPECT_EQ(EditDistance(a, b), OracleDistance(a, b, false));
      EXPECT_EQ(DamerauDistance(a, b), OracleDistance(a, b, true));
      EXPECT_EQ(DamerauDistance(b, a), OracleDistance(b, a, true));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferentialTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace mergepurge
