// Property tests over the text-processing layer: invariants that must
// hold for arbitrary inputs (normalization idempotence, phonetic code
// alphabet/shape, spell-correction budget, nickname-table reflexivity),
// and the contract of the shared transposition predicate.

#include <cctype>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "text/edit_distance.h"
#include "text/nicknames.h"
#include "text/normalize.h"
#include "text/phonetic.h"
#include "text/predicates.h"
#include "text/spell.h"
#include "util/random.h"
#include "util/string_util.h"

namespace mergepurge {
namespace {

std::string RandomText(Rng* rng, size_t max_len) {
  static constexpr char kChars[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 "
      " .,'-/#@!";
  size_t len = rng->NextBounded(max_len + 1);
  std::string s;
  for (size_t i = 0; i < len; ++i) {
    s += kChars[rng->NextBounded(sizeof(kChars) - 1)];
  }
  return s;
}

// The contract IsAdjacentTransposition keeps whatever its body: one
// Damerau (OSA) operation that Levenshtein needs two for.
bool TwoDpTransposition(std::string_view x, std::string_view y) {
  return !x.empty() && x != y && DamerauDistance(x, y) == 1 &&
         EditDistance(x, y) == 2;
}

TEST(TranspositionTest, EdgeCases) {
  EXPECT_FALSE(IsAdjacentTransposition("", ""));
  EXPECT_FALSE(IsAdjacentTransposition("", "A"));
  EXPECT_FALSE(IsAdjacentTransposition("AB", "AB"));
  EXPECT_FALSE(IsAdjacentTransposition("AA", "AA"));
  EXPECT_FALSE(IsAdjacentTransposition("ABCD", "BADC"));  // Two swaps.
  EXPECT_TRUE(IsAdjacentTransposition("AB", "BA"));
  EXPECT_TRUE(IsAdjacentTransposition("AAB", "ABA"));
}

class TextPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TextPropertyTest, TranspositionMatchesTwoDpDefinition) {
  Rng rng(GetParam() + 700);
  // Words over {A,B,C}, each compared with itself after one random swap
  // (so both outcomes are common, repeated letters included), with that
  // swap plus one more random letter (a second difference anywhere), and
  // with an unrelated word.
  int positives = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string x(rng.NextBounded(9), 'A');
    for (char& c : x) c = static_cast<char>('A' + rng.NextBounded(3));
    std::string swapped = x;
    std::string swapped_and_changed = x;
    if (x.size() >= 2) {
      size_t i = rng.NextBounded(x.size() - 1);
      std::swap(swapped[i], swapped[i + 1]);
      swapped_and_changed = swapped;
      swapped_and_changed[rng.NextBounded(x.size())] =
          static_cast<char>('A' + rng.NextBounded(3));
    }
    for (const std::string& y :
         {swapped, swapped_and_changed, RandomText(&rng, 8)}) {
      bool got = IsAdjacentTransposition(x, y);
      EXPECT_EQ(got, TwoDpTransposition(x, y)) << x << " / " << y;
      EXPECT_EQ(got, IsAdjacentTransposition(y, x)) << x << " / " << y;
      positives += got ? 1 : 0;
    }
  }
  EXPECT_GT(positives, 500);
}

TEST_P(TextPropertyTest, NormalizersAreIdempotent) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    std::string s = RandomText(&rng, 40);
    std::string basic = NormalizeBasic(s);
    EXPECT_EQ(NormalizeBasic(basic), basic) << "input: " << s;
    std::string name = NormalizeName(s);
    EXPECT_EQ(NormalizeName(name), name) << "input: " << s;
    std::string address = NormalizeAddress(s);
    EXPECT_EQ(NormalizeAddress(address), address) << "input: " << s;
    std::string digits = NormalizeDigits(s);
    EXPECT_EQ(NormalizeDigits(digits), digits) << "input: " << s;
  }
}

TEST_P(TextPropertyTest, NormalizeBasicOutputAlphabet) {
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 500; ++trial) {
    std::string out = NormalizeBasic(RandomText(&rng, 40));
    for (size_t i = 0; i < out.size(); ++i) {
      char c = out[i];
      bool valid = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                   c == ' ';
      EXPECT_TRUE(valid) << "char '" << c << "' in: " << out;
    }
    // No leading/trailing/double spaces.
    EXPECT_EQ(out.find("  "), std::string::npos);
    if (!out.empty()) {
      EXPECT_NE(out.front(), ' ');
      EXPECT_NE(out.back(), ' ');
    }
  }
}

TEST_P(TextPropertyTest, SoundexShape) {
  Rng rng(GetParam() + 200);
  for (int trial = 0; trial < 500; ++trial) {
    std::string code = Soundex(RandomText(&rng, 25));
    if (code.empty()) continue;  // No letters in input.
    ASSERT_EQ(code.size(), 4u);
    EXPECT_TRUE(std::isupper(static_cast<unsigned char>(code[0])));
    for (size_t i = 1; i < 4; ++i) {
      EXPECT_TRUE(code[i] >= '0' && code[i] <= '6') << code;
    }
  }
}

TEST_P(TextPropertyTest, SoundexInvariantToCaseAndSymbols) {
  Rng rng(GetParam() + 300);
  for (int trial = 0; trial < 300; ++trial) {
    std::string s = RandomText(&rng, 20);
    std::string lowered;
    for (char c : s) {
      lowered += static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    }
    EXPECT_EQ(Soundex(s), Soundex(lowered));
  }
}

TEST_P(TextPropertyTest, NysiisShape) {
  Rng rng(GetParam() + 400);
  for (int trial = 0; trial < 500; ++trial) {
    std::string code = Nysiis(RandomText(&rng, 25));
    EXPECT_LE(code.size(), 6u);
    for (char c : code) {
      EXPECT_TRUE(c >= 'A' && c <= 'Z') << code;
    }
  }
}

TEST_P(TextPropertyTest, SpellCorrectionStaysWithinBudget) {
  Rng rng(GetParam() + 500);
  // Small random corpus of "city" words.
  std::vector<std::string> corpus;
  for (int i = 0; i < 50; ++i) {
    std::string word;
    size_t len = 4 + rng.NextBounded(10);
    for (size_t j = 0; j < len; ++j) {
      word += static_cast<char>('A' + rng.NextBounded(26));
    }
    corpus.push_back(word);
  }
  SpellCorrector corrector(corpus);
  for (int trial = 0; trial < 300; ++trial) {
    std::string word = RandomText(&rng, 16);
    std::string fixed = corrector.Correct(word);
    if (fixed == ToUpperAscii(word)) continue;  // Unchanged.
    // A correction must land in the corpus and within the edit budget.
    EXPECT_TRUE(corrector.Contains(fixed));
    int budget = ToUpperAscii(word).size() >= 6 ? 2 : 1;
    EXPECT_LE(DamerauDistance(ToUpperAscii(word), fixed), budget);
  }
}

TEST_P(TextPropertyTest, NicknameCanonicalizationIsIdempotent) {
  Rng rng(GetParam() + 600);
  const NicknameTable& table = NicknameTable::Default();
  for (int trial = 0; trial < 300; ++trial) {
    std::string name = RandomText(&rng, 12);
    std::string canon = table.Canonicalize(name);
    EXPECT_EQ(table.Canonicalize(canon), canon);
  }
}

// Canonicalize ignores case: a name spelled in upper, lower or mixed case
// has the canonical form of its upper-case spelling, for table names
// (canonical and variant) and unknown names. The rule language's
// same_name compares these forms.
TEST_P(TextPropertyTest, CanonicalizeIgnoresCase) {
  Rng rng(GetParam() + 800);
  const NicknameTable& table = NicknameTable::Default();
  const std::vector<std::string> base = {
      "ROBERT", "BOB",   "BERT",  "WILLIAM", "BILL",   "LIAM",    "JOHN",
      "JACK",   "IAN",   "SEAN",  "JOSEPH",  "JOSE",   "JOS",     "ALEX",
      "AL",     "SANDY", "MARY",  "MARIA",   "ED",     "TED",     "ANN",
      "ANNE",   "JANE",  "JOAN",  "SMITH",   "ROBERTA", "JOHNS",  "J",
      "",       "ZED",   "BOBB",  "O'NEIL",  "MARY-ANN"};
  // All lower case (mode 0) or each letter lowered with probability 1/2.
  auto spelling = [&rng](std::string name) {
    const uint64_t mode = rng.NextBounded(2);
    for (char& c : name) {
      if (mode == 0 || rng.NextBounded(2) == 0) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
    }
    return name;
  };
  int same = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string& a = base[rng.NextBounded(base.size())];
    const std::string& b = base[rng.NextBounded(base.size())];
    EXPECT_EQ(table.Canonicalize(spelling(a)), table.Canonicalize(a)) << a;
    const bool equal = table.Canonicalize(spelling(a)) ==
                       table.Canonicalize(spelling(b));
    EXPECT_EQ(equal, table.Canonicalize(a) == table.Canonicalize(b))
        << a << " / " << b;
    same += equal ? 1 : 0;
  }
  EXPECT_GT(same, 100);  // Equal canonical names occur, not only unequal.
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextPropertyTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace mergepurge
