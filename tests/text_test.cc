#include <gtest/gtest.h>

#include "text/keyboard_distance.h"
#include "text/nicknames.h"
#include "text/normalize.h"
#include "text/phonetic.h"
#include "text/spell.h"

namespace mergepurge {
namespace {

// --- Keyboard distance. ---

TEST(KeyboardTest, AdjacencyOnQwerty) {
  EXPECT_TRUE(AreKeysAdjacent('q', 'w'));
  EXPECT_TRUE(AreKeysAdjacent('a', 'q'));
  EXPECT_TRUE(AreKeysAdjacent('g', 'h'));
  EXPECT_TRUE(AreKeysAdjacent('G', 'h'));  // Case-insensitive.
  EXPECT_FALSE(AreKeysAdjacent('q', 'p'));
  EXPECT_FALSE(AreKeysAdjacent('a', 'a'));
  EXPECT_FALSE(AreKeysAdjacent('a', '-'));
}

TEST(KeyboardTest, NeighborKeyIsAdjacent) {
  for (unsigned i = 0; i < 8; ++i) {
    char n = NeighborKey('g', i);
    EXPECT_TRUE(AreKeysAdjacent('g', n)) << n;
  }
  EXPECT_EQ(NeighborKey('-', 0), '-');  // No neighbours -> unchanged.
}

TEST(KeyboardTest, NeighborKeyPreservesCase) {
  char n = NeighborKey('G', 0);
  EXPECT_TRUE(std::isupper(static_cast<unsigned char>(n)));
}

TEST(KeyboardTest, SubstitutionCosts) {
  EXPECT_DOUBLE_EQ(KeyboardSubstitutionCost('a', 'a'), 0.0);
  EXPECT_DOUBLE_EQ(KeyboardSubstitutionCost('a', 'A'), 0.0);
  EXPECT_DOUBLE_EQ(KeyboardSubstitutionCost('q', 'w'), 0.5);
  EXPECT_DOUBLE_EQ(KeyboardSubstitutionCost('q', 'p'), 1.0);
}

TEST(KeyboardTest, AdjacentTypoCheaperThanDistantTypo) {
  // SMITH with adjacent-key typo vs distant-key typo.
  double adjacent = KeyboardDistance("SMITH", "SMUTH");  // i->u adjacent.
  double distant = KeyboardDistance("SMITH", "SMQTH");   // i->q distant.
  EXPECT_LT(adjacent, distant);
}

TEST(KeyboardTest, SimilarityBounds) {
  EXPECT_DOUBLE_EQ(KeyboardSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(KeyboardSimilarity("abc", "abc"), 1.0);
  EXPECT_GE(KeyboardSimilarity("abc", "xyz"), 0.0);
}

// --- Phonetic codes. ---

TEST(SoundexTest, ClassicExamples) {
  EXPECT_EQ(Soundex("Robert"), "R163");
  EXPECT_EQ(Soundex("Rupert"), "R163");
  EXPECT_EQ(Soundex("Ashcraft"), "A261");
  EXPECT_EQ(Soundex("Ashcroft"), "A261");
  EXPECT_EQ(Soundex("Tymczak"), "T522");
  EXPECT_EQ(Soundex("Pfister"), "P236");
  EXPECT_EQ(Soundex("Honeyman"), "H555");
}

TEST(SoundexTest, EmptyAndSymbols) {
  EXPECT_EQ(Soundex(""), "");
  EXPECT_EQ(Soundex("123"), "");
  EXPECT_EQ(Soundex("O'Brien"), Soundex("OBRIEN"));
}

TEST(SoundexTest, CaseInsensitive) {
  EXPECT_EQ(Soundex("smith"), Soundex("SMITH"));
}

TEST(SoundexTest, SoundAlikeNamesShareACode) {
  EXPECT_EQ(Soundex("Smith"), Soundex("Smyth"));
  EXPECT_NE(Soundex("Smith"), Soundex("Jones"));
}

TEST(NysiisTest, KnownBehaviour) {
  // NYSIIS maps sound-alike surnames together.
  EXPECT_EQ(Nysiis("KNIGHT"), Nysiis("NIGHT"));
  EXPECT_EQ(Nysiis("PHILLIP"), Nysiis("FILLIP"));
  EXPECT_FALSE(Nysiis("MACDONALD").empty());
  EXPECT_EQ(Nysiis(""), "");
  EXPECT_LE(Nysiis("WORTHINGTONSMYTHE").size(), 6u);
}

TEST(NysiisTest, SameNameSameCode) {
  EXPECT_EQ(Nysiis("BROWN"), Nysiis("BRAUN"));
  EXPECT_FALSE(Nysiis("BROWN").empty());
}

// --- Normalization. ---

TEST(NormalizeTest, BasicCollapsesAndUppercases) {
  EXPECT_EQ(NormalizeBasic("  john   q.  smith "), "JOHN Q SMITH");
  EXPECT_EQ(NormalizeBasic("O'Brien"), "OBRIEN");
  EXPECT_EQ(NormalizeBasic("first-second"), "FIRST SECOND");
  EXPECT_EQ(NormalizeBasic(""), "");
}

TEST(NormalizeTest, NameStripsSalutationsAndSuffixes) {
  EXPECT_EQ(NormalizeName("Mr. John Smith"), "JOHN SMITH");
  EXPECT_EQ(NormalizeName("John Smith Jr"), "JOHN SMITH");
  EXPECT_EQ(NormalizeName("DR SMITH III"), "SMITH");
  // A name that is ONLY a suffix token survives.
  EXPECT_EQ(NormalizeName("Jr"), "JR");
}

TEST(NormalizeTest, AddressCanonicalizesStreetTypes) {
  EXPECT_EQ(NormalizeAddress("123 Main Street"), "123 MAIN ST");
  EXPECT_EQ(NormalizeAddress("9 North Oak Avenue"), "9 N OAK AVE");
  EXPECT_EQ(NormalizeAddress("12 ELM BOULEVARD"), "12 ELM BLVD");
}

TEST(NormalizeTest, DigitsKeepsOnlyDigits) {
  EXPECT_EQ(NormalizeDigits("123-45-6789"), "123456789");
  EXPECT_EQ(NormalizeDigits("abc"), "");
}

TEST(NormalizeTest, ConditionEmployeeDataset) {
  Dataset d(employee::MakeSchema());
  Record r;
  r.set_field(employee::kSsn, "123-45-6789");
  r.set_field(employee::kFirstName, "mr. bob");
  r.set_field(employee::kInitial, "q.");
  r.set_field(employee::kLastName, "o'brien jr");
  r.set_field(employee::kAddress, "12 oak street");
  r.set_field(employee::kApartment, "apartment 9");
  r.set_field(employee::kCity, "new york");
  r.set_field(employee::kState, "ny");
  r.set_field(employee::kZip, "10027-1234");
  d.Append(std::move(r));

  ConditionEmployeeDataset(&d);
  const Record& c = d.record(0);
  EXPECT_EQ(c.field(employee::kSsn), "123456789");
  EXPECT_EQ(c.field(employee::kFirstName), "BOB");
  EXPECT_EQ(c.field(employee::kInitial), "Q");
  EXPECT_EQ(c.field(employee::kLastName), "OBRIEN");
  EXPECT_EQ(c.field(employee::kAddress), "12 OAK ST");
  EXPECT_EQ(c.field(employee::kApartment), "APT 9");
  EXPECT_EQ(c.field(employee::kCity), "NEW YORK");
  EXPECT_EQ(c.field(employee::kState), "NY");
  EXPECT_EQ(c.field(employee::kZip), "100271234");
}

// --- Nicknames. ---

TEST(NicknameTest, PaperExampleJosephGiuseppe) {
  const NicknameTable& table = NicknameTable::Default();
  EXPECT_EQ(table.Canonicalize("JOSEPH"), table.Canonicalize("GIUSEPPE"));
  EXPECT_EQ(table.Canonicalize("Giuseppe"), "JOSEPH");
}

TEST(NicknameTest, CommonDiminutives) {
  const NicknameTable& table = NicknameTable::Default();
  EXPECT_EQ(table.Canonicalize("BOB"), table.Canonicalize("ROBERT"));
  EXPECT_EQ(table.Canonicalize("Bill"), table.Canonicalize("william"));
  EXPECT_EQ(table.Canonicalize("LIZ"), table.Canonicalize("BETTY"));
  EXPECT_NE(table.Canonicalize("BOB"), table.Canonicalize("WILLIAM"));
}

TEST(NicknameTest, UnknownNamesPassThrough) {
  const NicknameTable& table = NicknameTable::Default();
  EXPECT_EQ(table.Canonicalize("XAVIERA"), "XAVIERA");
  EXPECT_EQ(table.Canonicalize("xaviera"), "XAVIERA");
}

TEST(NicknameTest, CustomTable) {
  NicknameTable table;
  table.AddGroup("ALPHA", {"AL", "ALF"});
  EXPECT_EQ(table.Canonicalize("al"), table.Canonicalize("ALF"));
  EXPECT_EQ(table.Canonicalize("ALPHA"), "ALPHA");
}

// --- Spelling correction. ---

TEST(SpellTest, CorrectsSingleTypo) {
  SpellCorrector corrector({"CHICAGO", "HOUSTON", "PHOENIX", "DALLAS"});
  EXPECT_EQ(corrector.Correct("CHICAGP"), "CHICAGO");
  EXPECT_EQ(corrector.Correct("HOUSTONN"), "HOUSTON");
  EXPECT_EQ(corrector.Correct("PHEONIX"), "PHOENIX");  // Transposition.
}

TEST(SpellTest, ExactWordUnchanged) {
  SpellCorrector corrector({"CHICAGO"});
  EXPECT_EQ(corrector.Correct("chicago"), "CHICAGO");
  EXPECT_TRUE(corrector.Contains("Chicago"));
}

TEST(SpellTest, FarWordUnchanged) {
  SpellCorrector corrector({"CHICAGO"});
  EXPECT_EQ(corrector.Correct("ZZZZZZ"), "ZZZZZZ");
}

TEST(SpellTest, AmbiguousTieNotCorrected) {
  // DALE is distance 1 from both DALT and DALP's nearest... construct a
  // true tie: "CAT" vs corpus {"CAR", "CAP"}: both at distance 1.
  SpellCorrector corrector({"CAR", "CAP"});
  EXPECT_EQ(corrector.Correct("CAT"), "CAT");
}

TEST(SpellTest, EmptyInput) {
  SpellCorrector corrector({"X"});
  EXPECT_EQ(corrector.Correct(""), "");
}

TEST(SpellTest, ShortWordsGetSmallBudget) {
  SpellCorrector corrector({"OHIO"});
  EXPECT_EQ(corrector.Correct("OHIP"), "OHIO");   // 1 edit, allowed.
  EXPECT_EQ(corrector.Correct("AHIP"), "AHIP");   // 2 edits on short word.
}

}  // namespace
}  // namespace mergepurge
