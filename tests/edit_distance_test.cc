#include <algorithm>
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
