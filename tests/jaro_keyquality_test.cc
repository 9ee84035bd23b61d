#include <gtest/gtest.h>

#include <string>

#include "record/record.h"
#include "record/schema.h"
#include "rules/rule_program.h"
#include "text/jaro_winkler.h"
#include "util/random.h"

namespace mergepurge {
namespace {

// --- Jaro / Jaro-Winkler. ---

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("same", "same"), 1.0);
  // The canonical textbook example.
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.9444, 1e-3);
  EXPECT_NEAR(JaroSimilarity("DIXON", "DICKSONX"), 0.7667, 1e-3);
  EXPECT_DOUBLE_EQ(JaroSimilarity("ABC", "XYZ"), 0.0);
}

TEST(JaroWinklerTest, PrefixBoost) {
  EXPECT_NEAR(JaroWinklerSimilarity("MARTHA", "MARHTA"), 0.9611, 1e-3);
  // Common prefix raises Jaro, never past 1.
  double jaro = JaroSimilarity("PREFIXAB", "PREFIXYZ");
  double jw = JaroWinklerSimilarity("PREFIXAB", "PREFIXYZ");
  EXPECT_GT(jw, jaro);
  EXPECT_LE(jw, 1.0);
  // No common prefix: no boost.
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("ABC", "XBC"),
                   JaroSimilarity("ABC", "XBC"));
}

TEST(JaroTest, SymmetryAndRangeProperty) {
  Rng rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    auto make = [&rng] {
      std::string s;
      size_t len = rng.NextBounded(10);
      for (size_t i = 0; i < len; ++i) {
        s += static_cast<char>('A' + rng.NextBounded(4));
      }
      return s;
    };
    std::string a = make();
    std::string b = make();
    double ab = JaroWinklerSimilarity(a, b);
    double ba = JaroWinklerSimilarity(b, a);
    EXPECT_DOUBLE_EQ(ab, ba) << a << " " << b;
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    EXPECT_EQ(JaroWinklerSimilarity(a, a), 1.0);
  }
}

// --- N-gram similarity. ---

TEST(NgramTest, KnownValues) {
  EXPECT_DOUBLE_EQ(NgramSimilarity("", "", 2), 1.0);
  EXPECT_DOUBLE_EQ(NgramSimilarity("A", "A", 2), 1.0);  // Shorter than n.
  EXPECT_DOUBLE_EQ(NgramSimilarity("A", "B", 2), 0.0);
  EXPECT_DOUBLE_EQ(NgramSimilarity("NIGHT", "NIGHT", 2), 1.0);
  // NIGHT vs NACHT share bigrams {HT} -> 2*1/(4+4) = 0.25.
  EXPECT_NEAR(NgramSimilarity("NIGHT", "NACHT", 2), 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(NgramSimilarity("ABCD", "WXYZ", 2), 0.0);
}

TEST(NgramTest, MultisetSemantics) {
  // "AAA" has bigrams {AA, AA}; "AA" has {AA}: 2*1/(2+1) = 2/3.
  EXPECT_NEAR(NgramSimilarity("AAAA", "AAA", 2), 2.0 * 2.0 / 5.0, 1e-9);
}

TEST(NgramTest, SymmetryProperty) {
  Rng rng(37);
  for (int trial = 0; trial < 500; ++trial) {
    auto make = [&rng] {
      std::string s;
      size_t len = rng.NextBounded(12);
      for (size_t i = 0; i < len; ++i) {
        s += static_cast<char>('A' + rng.NextBounded(3));
      }
      return s;
    };
    std::string a = make();
    std::string b = make();
    for (size_t n : {2u, 3u}) {
      EXPECT_NEAR(NgramSimilarity(a, b, n), NgramSimilarity(b, a, n), 1e-12)
          << a << " " << b << " n=" << n;
    }
  }
}

TEST(NgramJaroDslTest, AvailableAsBuiltins) {
  auto program = RuleProgram::Compile(
      "rule jw: if jaro_winkler(r1.last_name, r2.last_name) >= 0.92 "
      "then match\n"
      "rule ng: if ngram_similarity(r1.last_name, r2.last_name, 2) >= 0.6 "
      "and r1.address == r2.address then match\n",
      employee::MakeSchema());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Record a;
  a.set_field(employee::kLastName, "MARTHA");
  Record b;
  b.set_field(employee::kLastName, "MARHTA");
  EXPECT_TRUE(program->Matches(a, b));
}

}  // namespace
}  // namespace mergepurge
