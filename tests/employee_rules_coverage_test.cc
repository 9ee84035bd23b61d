// Per-rule coverage of the 26-rule employee theory: for each rule, a pair
// engineered to exercise its evidence combination (asserting the fired
// rule where the rule is the first that can match, and `fired <= rule`
// where a more specific rule legitimately shadows it), plus negative
// variants that must NOT match.

#include <string>

#include <gtest/gtest.h>

#include "rules/employee_theory.h"
#include "record/schema.h"

namespace mergepurge {
namespace {

Record Base() {
  Record r;
  r.set_field(employee::kSsn, "123456789");
  r.set_field(employee::kFirstName, "MICHAEL");
  r.set_field(employee::kInitial, "A");
  r.set_field(employee::kLastName, "JOHNSON");
  r.set_field(employee::kAddress, "42 MAPLE AVE");
  r.set_field(employee::kApartment, "APT 7");
  r.set_field(employee::kCity, "CHICAGO");
  r.set_field(employee::kState, "IL");
  r.set_field(employee::kZip, "60601");
  return r;
}

// A record unrelated to Base() in every evidence dimension.
Record Stranger() {
  Record r;
  r.set_field(employee::kSsn, "987650000");
  r.set_field(employee::kFirstName, "GWENDOLYN");
  r.set_field(employee::kInitial, "Z");
  r.set_field(employee::kLastName, "FITZWILLIAM");
  r.set_field(employee::kAddress, "9000 CACTUS BLVD");
  r.set_field(employee::kApartment, "");
  r.set_field(employee::kCity, "PHOENIX");
  r.set_field(employee::kState, "AZ");
  r.set_field(employee::kZip, "85001");
  return r;
}

int RuleIndex(std::string_view name) {
  const EmployeeTheory theory;
  for (size_t i = 0; i < theory.num_rules(); ++i) {
    if (theory.rule_name(i) == name) return static_cast<int>(i);
  }
  ADD_FAILURE() << "unknown rule " << name;
  return -1;
}

class RuleCoverageTest : public ::testing::Test {
 protected:
  // Asserts the pair matches and the fired rule is exactly `name`.
  void ExpectFires(const Record& a, const Record& b,
                   std::string_view name) {
    int fired = theory_.MatchingRule(a, b);
    ASSERT_GE(fired, 0) << "no rule fired; expected " << name;
    EXPECT_EQ(theory_.rule_name(fired), name);
    // Symmetry of the decision.
    EXPECT_GE(theory_.MatchingRule(b, a), 0);
  }

  // Asserts the pair matches via `name` or a MORE specific (earlier) rule.
  void ExpectMatchesAtMost(const Record& a, const Record& b,
                           std::string_view name) {
    int fired = theory_.MatchingRule(a, b);
    ASSERT_GE(fired, 0) << "no rule fired; expected at most " << name;
    EXPECT_LE(fired, RuleIndex(name))
        << "fired " << theory_.rule_name(fired);
  }

  void ExpectNoMatch(const Record& a, const Record& b) {
    EXPECT_EQ(theory_.MatchingRule(a, b), -1);
    EXPECT_EQ(theory_.MatchingRule(b, a), -1);
  }

  EmployeeTheory theory_;
};

TEST_F(RuleCoverageTest, Rule00IdenticalRecords) {
  Record a = Base();
  ExpectFires(a, a, "identical-records");
}

TEST_F(RuleCoverageTest, Rule01ExactNamesAndAddress) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "555550000");  // Breaks identity, keeps names.
  ExpectFires(a, b, "exact-names-and-address");
}

TEST_F(RuleCoverageTest, Rule02ExactSsnAndNames) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kAddress, "1 OTHER RD");  // Breaks rule 1.
  b.set_field(employee::kCity, "DETROIT");
  b.set_field(employee::kZip, "48201");
  ExpectFires(a, b, "exact-ssn-and-names");
}

TEST_F(RuleCoverageTest, Rule03SsnNamesSimilar) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kFirstName, "MICHEL");  // Differ slightly.
  b.set_field(employee::kAddress, "1 OTHER RD");
  ExpectFires(a, b, "ssn-names-similar");
}

TEST_F(RuleCoverageTest, Rule04ShadowedByRule03) {
  // Initial-match first names with equal SSN and last name satisfy rule 3
  // first (FirstSimilar subsumes initial_match) — the OPS5-style shadowing
  // documented in the theory. The pair must still match.
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kFirstName, "M");
  b.set_field(employee::kAddress, "1 OTHER RD");
  ExpectMatchesAtMost(a, b, "ssn-last-and-first-initial");
}

TEST_F(RuleCoverageTest, Rule05SsnNickname) {
  // Nickname + weakly similar (not >= 0.8) surname: rule 3 fails on
  // LastSimilar, rule 5 accepts via the weak threshold.
  Record a = Base();
  a.set_field(employee::kFirstName, "ROBERT");
  Record b = a;
  b.set_field(employee::kFirstName, "BOB");
  b.set_field(employee::kLastName, "JOHNSTAN");  // sim 0.75: weak band.
  b.set_field(employee::kAddress, "1 OTHER RD");
  b.set_field(employee::kCity, "DETROIT");
  b.set_field(employee::kZip, "48201");
  ExpectFires(a, b, "ssn-nickname");
}

TEST_F(RuleCoverageTest, Rule06SsnAddress) {
  // SSN + address agree; names are destroyed.
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kFirstName, "GWENDOLYN");
  b.set_field(employee::kLastName, "FITZWILLIAM");
  ExpectFires(a, b, "ssn-address");
}

TEST_F(RuleCoverageTest, Rule07SsnLocationLast) {
  // SSN + city/state/zip agree, surname weakly similar, address moved.
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kFirstName, "GWENDOLYN");
  b.set_field(employee::kLastName, "JOHNSSON");  // Weak band.
  b.set_field(employee::kAddress, "9000 CACTUS BLVD");
  b.set_field(employee::kApartment, "");
  ExpectFires(a, b, "ssn-location-last");
}

TEST_F(RuleCoverageTest, Rule08SsnCloseNames) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "123456780");  // One digit off.
  b.set_field(employee::kAddress, "1 OTHER RD");
  b.set_field(employee::kCity, "DETROIT");
  b.set_field(employee::kZip, "48201");
  ExpectFires(a, b, "ssn-close-names");
}

TEST_F(RuleCoverageTest, Rule09SsnCloseAddress) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "123456780");
  b.set_field(employee::kFirstName, "GWENDOLYN");  // Kills name rules.
  ExpectFires(a, b, "ssn-close-address");
}

TEST_F(RuleCoverageTest, Rule10SsnTransposedNameAddress) {
  // The paper's 193456782 / 913456782 example: transposed SSN, names fine.
  Record a = Base();
  a.set_field(employee::kSsn, "193456782");
  Record b = Base();
  b.set_field(employee::kSsn, "913456782");
  // Transposed SSN is also damerau distance 1 -> ssn-close rules fire
  // first; that is correct and more specific.
  ExpectMatchesAtMost(a, b, "ssn-transposed-name-address");
}

TEST_F(RuleCoverageTest, Rule11PaperExampleRule) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "555550000");   // SSN unrelated.
  b.set_field(employee::kFirstName, "MICHEL");  // Differ slightly.
  ExpectFires(a, b, "paper-example-rule");
}

TEST_F(RuleCoverageTest, Rule12NamesExactAddressSimilar) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "555550000");
  b.set_field(employee::kAddress, "42 MAPLE AV");  // Similar, not equal.
  ExpectFires(a, b, "names-exact-address-similar");
}

TEST_F(RuleCoverageTest, Rule13NamesSimilarAddressCorroborated) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "");            // Missing: compatible.
  b.set_field(employee::kFirstName, "MICHEL");
  b.set_field(employee::kLastName, "JOHNSONS");
  b.set_field(employee::kAddress, "42 MAPLE AV");
  ExpectFires(a, b, "names-similar-address-corroborated");
}

TEST_F(RuleCoverageTest, Rule14NicknameLastAddress) {
  Record a = Base();
  a.set_field(employee::kFirstName, "ROBERT");
  Record b = a;
  b.set_field(employee::kSsn, "555550000");
  b.set_field(employee::kFirstName, "BOB");
  b.set_field(employee::kAddress, "42 MAPLE AV");
  // SSNs contradict -> rule 13 fails (SsnCompatible false); nickname rule
  // has no ssn condition.
  ExpectFires(a, b, "nickname-last-address");
}

TEST_F(RuleCoverageTest, Rule15InitialsAddressLocation) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "555550000");
  b.set_field(employee::kFirstName, "M");  // Initial only.
  // FirstSimilar subsumes initial_match, so the paper-example rule (last
  // equal + first similar + address equal) legitimately fires first.
  ExpectMatchesAtMost(a, b, "initials-address-location");
}

TEST_F(RuleCoverageTest, Rule16LastTransposedAddress) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "555550000");
  b.set_field(employee::kLastName, "JOHNOSN");   // Adjacent transposition.
  b.set_field(employee::kAddress, "42 MAPLE AV");
  // Surname transposition keeps similarity >= 0.8 for 7+ chars, so rule 13
  // can fire first; both are acceptable evidence paths.
  ExpectMatchesAtMost(a, b, "last-transposed-address");
}

TEST_F(RuleCoverageTest, Rule18MissingFirstAddress) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "555550000");
  b.set_field(employee::kFirstName, "");
  ExpectFires(a, b, "missing-first-address");
}

TEST_F(RuleCoverageTest, Rule19HyphenatedLastAddress) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "555550000");
  b.set_field(employee::kLastName, "JOHNSON-SMITH");
  b.set_field(employee::kAddress, "42 MAPLE AV");
  ExpectFires(a, b, "hyphenated-last-address");
}

TEST_F(RuleCoverageTest, Rule20StreetNumberZip) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "555550000");
  b.set_field(employee::kFirstName, "MICHEL");
  b.set_field(employee::kAddress, "42 MAPEL STREET ROAD");  // Name mangled.
  ExpectFires(a, b, "street-number-zip");
}

TEST_F(RuleCoverageTest, Rule21PhoneticNamesAddress) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "555550000");
  b.set_field(employee::kFirstName, "MYKAYL");   // Sounds like MICHAEL.
  b.set_field(employee::kLastName, "JONSON");    // Sounds like JOHNSON,
  b.set_field(employee::kAddress, "42 MAPLE AV");  // sim 0.75 band...
  ExpectMatchesAtMost(a, b, "phonetic-names-address");
}

TEST_F(RuleCoverageTest, Rule22LastNameChanged) {
  Record a = Base();
  a.set_field(employee::kFirstName, "MARY");
  Record b = a;
  b.set_field(employee::kSsn, "555550000");
  b.set_field(employee::kLastName, "FITZWILLIAM");  // Marriage.
  ExpectFires(a, b, "last-name-changed");
}

TEST_F(RuleCoverageTest, Rule23NamesZipAddress) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "555550000");
  // First name similar by edit distance but NOT a nickname variant and
  // NOT phonetically equal (keeps rules 14 and 21 out of the way).
  b.set_field(employee::kFirstName, "MICHREL");
  // Different street number keeps rule 20 out; still address-similar.
  b.set_field(employee::kAddress, "420 MAPLE AV");
  b.set_field(employee::kApartment, "APT 9");  // Apt conflict kills 13.
  ExpectFires(a, b, "names-zip-address");
}

TEST_F(RuleCoverageTest, Rule24ApartmentCorroborated) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "555550000");
  b.set_field(employee::kFirstName, "");          // Missing first name...
  b.set_field(employee::kLastName, "JOHNSTAN");   // ...weak-band surname:
  // rule 18 needs surname equality, the phonetic rule needs a first name,
  // so only the apartment-corroborated evidence remains.
  ExpectFires(a, b, "apartment-corroborated");
}

TEST_F(RuleCoverageTest, Rule25AggregateSimilarity) {
  // Small typos spread across every field; no single rule's exact-match
  // demands hold, but the weighted whole-record similarity is high.
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "123456789");
  b.set_field(employee::kFirstName, "MICHAEL");
  b.set_field(employee::kLastName, "JOHNSSON");   // Weak band.
  b.set_field(employee::kAddress, "42 MAPLE AVEN");
  b.set_field(employee::kApartment, "APT 9");     // Conflict kills 6/13/24.
  b.set_field(employee::kCity, "CHICAGA");
  b.set_field(employee::kZip, "60611");
  ExpectMatchesAtMost(a, b, "aggregate-similarity");
}

// --- Negatives: near-miss pairs that must NOT match. ---

TEST_F(RuleCoverageTest, StrangersDoNotMatch) {
  ExpectNoMatch(Base(), Stranger());
}

TEST_F(RuleCoverageTest, SameSurnameDifferentEverythingElse) {
  Record a = Base();
  Record b = Stranger();
  b.set_field(employee::kLastName, "JOHNSON");
  ExpectNoMatch(a, b);
}

TEST_F(RuleCoverageTest, SameAddressDifferentPeople) {
  // Housemates with different names and SSNs: no rule may merge them.
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "555550000");
  b.set_field(employee::kFirstName, "GWENDOLYN");
  b.set_field(employee::kLastName, "FITZWILLIAM");
  ExpectNoMatch(a, b);
}

TEST_F(RuleCoverageTest, SameFirstNameOnly) {
  Record a = Base();
  Record b = Stranger();
  b.set_field(employee::kFirstName, "MICHAEL");
  ExpectNoMatch(a, b);
}

TEST_F(RuleCoverageTest, SsnCollisionAloneInsufficient) {
  // "two records have exactly the same social security numbers, but the
  // names and addresses are completely different ... we may perhaps
  // assume [they are different persons]" (§2.3).
  Record a = Base();
  Record b = Stranger();
  b.set_field(employee::kSsn, a.fields()[employee::kSsn]);
  ExpectNoMatch(a, b);
}

TEST_F(RuleCoverageTest, MarriageRuleNeedsFullHouseholdAgreement) {
  Record a = Base();
  a.set_field(employee::kFirstName, "MARY");
  Record b = a;
  b.set_field(employee::kSsn, "555550000");
  b.set_field(employee::kLastName, "FITZWILLIAM");
  b.set_field(employee::kApartment, "");  // Missing apartment: no rule 22.
  ExpectNoMatch(a, b);
}

TEST_F(RuleCoverageTest, WeakSurnameWithoutCorroborationFails) {
  Record a = Base();
  Record b = Base();
  b.set_field(employee::kSsn, "555550000");
  b.set_field(employee::kFirstName, "GWENDOLYN");
  b.set_field(employee::kLastName, "JOHNSSON");
  b.set_field(employee::kApartment, "");  // No apartment corroboration.
  ExpectNoMatch(a, b);
}

}  // namespace
}  // namespace mergepurge
