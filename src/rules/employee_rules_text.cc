#include "rules/employee_theory.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "record/schema.h"

namespace mergepurge {

namespace {

// Damerau similarity throughout; names differ slightly at 0.80 (0.70
// where other evidence is strong), addresses at 0.75, cities at 0.80.
// Conjunction order never changes a decision, only the work a pair costs,
// so conditions lead with tests an earlier rule has usually decided (the
// compiler then skips the rule outright).
constexpr char kEmployeeRules[] = R"RULES(
# Equational theory for employee records (merge/purge).
# A pair of records is declared equivalent when ANY rule fires.

# Two byte-identical records are one entity even when every field is
# blank; this is the only rule allowed to merge all-blank records.
# rulecheck: allow(blank-merge)
rule identical-records:
  if r1.ssn == r2.ssn
  and r1.first_name == r2.first_name
  and r1.initial == r2.initial
  and r1.last_name == r2.last_name
  and r1.address == r2.address
  and r1.apartment == r2.apartment
  and r1.city == r2.city
  and r1.state == r2.state
  and r1.zip == r2.zip
  then match

rule exact-names-and-address:
  if r1.first_name == r2.first_name and not empty(r1.first_name)
  and r1.last_name == r2.last_name and not empty(r1.last_name)
  and r1.address == r2.address and not empty(r1.address)
  and (empty(r1.apartment) or empty(r2.apartment)
       or r1.apartment == r2.apartment)
  then match

rule exact-ssn-and-names:
  if r1.ssn == r2.ssn and not empty(r1.ssn)
  and r1.first_name == r2.first_name and not empty(r1.first_name)
  and r1.last_name == r2.last_name and not empty(r1.last_name)
  then match

rule ssn-names-similar:
  if r1.ssn == r2.ssn and not empty(r1.ssn)
  and not empty(r1.first_name) and not empty(r2.first_name)
  and (same_name(r1.first_name, r2.first_name)
       or initial_match(r1.first_name, r2.first_name)
       or similarity(r1.first_name, r2.first_name) >= 0.80)
  and not empty(r1.last_name) and not empty(r2.last_name)
  and similarity(r1.last_name, r2.last_name) >= 0.80
  then match

rule ssn-last-and-first-initial:
  if r1.ssn == r2.ssn and not empty(r1.ssn)
  and r1.last_name == r2.last_name and not empty(r1.last_name)
  and initial_match(r1.first_name, r2.first_name)
  then match

rule ssn-nickname:
  if r1.ssn == r2.ssn and not empty(r1.ssn)
  and not empty(r1.first_name) and not empty(r2.first_name)
  and same_name(r1.first_name, r2.first_name)
  and not empty(r1.last_name) and not empty(r2.last_name)
  and similarity(r1.last_name, r2.last_name) >= 0.70
  then match

rule ssn-address:
  if r1.ssn == r2.ssn and not empty(r1.ssn)
  and not empty(r1.address) and not empty(r2.address)
  and similarity(r1.address, r2.address) >= 0.75
  and (empty(r1.apartment) or empty(r2.apartment)
       or r1.apartment == r2.apartment)
  then match

rule ssn-location-last:
  if r1.ssn == r2.ssn and not empty(r1.ssn)
  and ((r1.zip == r2.zip and not empty(r1.zip))
       or (not empty(r1.city) and not empty(r2.city)
           and (r1.city == r2.city
                or similarity(r1.city, r2.city) >= 0.80)
           and r1.state == r2.state and not empty(r1.state)))
  and not empty(r1.last_name) and not empty(r2.last_name)
  and similarity(r1.last_name, r2.last_name) >= 0.70
  then match

rule ssn-close-names:
  if not empty(r1.ssn) and not empty(r2.ssn)
  and damerau(r1.ssn, r2.ssn) <= 1
  and not empty(r1.first_name) and not empty(r2.first_name)
  and (same_name(r1.first_name, r2.first_name)
       or initial_match(r1.first_name, r2.first_name)
       or similarity(r1.first_name, r2.first_name) >= 0.80)
  and not empty(r1.last_name) and not empty(r2.last_name)
  and similarity(r1.last_name, r2.last_name) >= 0.80
  then match

rule ssn-close-address:
  if not empty(r1.ssn) and not empty(r2.ssn)
  and damerau(r1.ssn, r2.ssn) <= 1
  and not empty(r1.last_name) and not empty(r2.last_name)
  and similarity(r1.last_name, r2.last_name) >= 0.80
  and not empty(r1.address) and not empty(r2.address)
  and similarity(r1.address, r2.address) >= 0.75
  then match

rule ssn-transposed-name-address:
  if transposed(r1.ssn, r2.ssn)
  and ((not empty(r1.first_name) and not empty(r2.first_name)
        and (same_name(r1.first_name, r2.first_name)
             or initial_match(r1.first_name, r2.first_name)
             or similarity(r1.first_name, r2.first_name) >= 0.80))
       or (not empty(r1.last_name) and not empty(r2.last_name)
           and similarity(r1.last_name, r2.last_name) >= 0.80))
  and not empty(r1.address) and not empty(r2.address)
  and similarity(r1.address, r2.address) >= 0.75
  then match

# The example rule from the paper (section 2.3): same last name, first
# names differ slightly, same address.
rule paper-example-rule:
  if r1.last_name == r2.last_name and not empty(r1.last_name)
  and not empty(r1.first_name) and not empty(r2.first_name)
  and (same_name(r1.first_name, r2.first_name)
       or initial_match(r1.first_name, r2.first_name)
       or similarity(r1.first_name, r2.first_name) >= 0.80)
  and r1.address == r2.address and not empty(r1.address)
  then match

rule names-exact-address-similar:
  if r1.first_name == r2.first_name and not empty(r1.first_name)
  and r1.last_name == r2.last_name and not empty(r1.last_name)
  and not empty(r1.address) and not empty(r2.address)
  and similarity(r1.address, r2.address) >= 0.75
  and (empty(r1.apartment) or empty(r2.apartment)
       or r1.apartment == r2.apartment)
  then match

rule names-similar-address-corroborated:
  if not empty(r1.first_name) and not empty(r2.first_name)
  and (same_name(r1.first_name, r2.first_name)
       or initial_match(r1.first_name, r2.first_name)
       or similarity(r1.first_name, r2.first_name) >= 0.80)
  and not empty(r1.last_name) and not empty(r2.last_name)
  and similarity(r1.last_name, r2.last_name) >= 0.80
  and not empty(r1.address) and not empty(r2.address)
  and similarity(r1.address, r2.address) >= 0.75
  and (empty(r1.apartment) or empty(r2.apartment)
       or r1.apartment == r2.apartment)
  and (empty(r1.zip) or empty(r2.zip)
       or damerau(r1.zip, r2.zip) <= 1
       or (not empty(r1.city) and not empty(r2.city)
           and (r1.city == r2.city
                or similarity(r1.city, r2.city) >= 0.80))
       or (r1.state == r2.state and not empty(r1.state)))
  and (empty(r1.ssn) or empty(r2.ssn) or damerau(r1.ssn, r2.ssn) <= 1)
  then match

rule nickname-last-address:
  if r1.last_name == r2.last_name and not empty(r1.last_name)
  and not empty(r1.first_name) and not empty(r2.first_name)
  and same_name(r1.first_name, r2.first_name)
  and not empty(r1.address) and not empty(r2.address)
  and similarity(r1.address, r2.address) >= 0.75
  then match

rule initials-address-location:
  if r1.last_name == r2.last_name and not empty(r1.last_name)
  and initial_match(r1.first_name, r2.first_name)
  and r1.address == r2.address and not empty(r1.address)
  and ((r1.zip == r2.zip and not empty(r1.zip))
       or (not empty(r1.city) and not empty(r2.city)
           and (r1.city == r2.city
                or similarity(r1.city, r2.city) >= 0.80)
           and r1.state == r2.state and not empty(r1.state)))
  then match

rule last-transposed-address:
  if transposed(r1.last_name, r2.last_name)
  and not empty(r1.first_name) and not empty(r2.first_name)
  and (same_name(r1.first_name, r2.first_name)
       or initial_match(r1.first_name, r2.first_name)
       or similarity(r1.first_name, r2.first_name) >= 0.80)
  and not empty(r1.address) and not empty(r2.address)
  and similarity(r1.address, r2.address) >= 0.75
  then match

rule first-transposed-address:
  if transposed(r1.first_name, r2.first_name)
  and not empty(r1.last_name) and not empty(r2.last_name)
  and similarity(r1.last_name, r2.last_name) >= 0.80
  and not empty(r1.address) and not empty(r2.address)
  and similarity(r1.address, r2.address) >= 0.75
  then match

rule missing-first-address:
  if r1.last_name == r2.last_name and not empty(r1.last_name)
  and r1.address == r2.address and not empty(r1.address)
  and ((empty(r1.first_name) and not empty(r2.first_name))
       or (not empty(r1.first_name) and empty(r2.first_name)))
  and (empty(r1.apartment) or empty(r2.apartment)
       or r1.apartment == r2.apartment)
  and ((r1.zip == r2.zip and not empty(r1.zip))
       or (not empty(r1.city) and not empty(r2.city)
           and (r1.city == r2.city
                or similarity(r1.city, r2.city) >= 0.80)
           and r1.state == r2.state and not empty(r1.state)))
  then match

rule hyphenated-last-address:
  if hyphen_extended(r1.last_name, r2.last_name)
  and not empty(r1.first_name) and not empty(r2.first_name)
  and (same_name(r1.first_name, r2.first_name)
       or initial_match(r1.first_name, r2.first_name)
       or similarity(r1.first_name, r2.first_name) >= 0.80)
  and not empty(r1.address) and not empty(r2.address)
  and similarity(r1.address, r2.address) >= 0.75
  then match

rule street-number-zip:
  if r1.last_name == r2.last_name and not empty(r1.last_name)
  and street_number(r1.address) == street_number(r2.address)
  and not empty(street_number(r1.address))
  and r1.zip == r2.zip and not empty(r1.zip)
  and not empty(r1.first_name) and not empty(r2.first_name)
  and (same_name(r1.first_name, r2.first_name)
       or initial_match(r1.first_name, r2.first_name)
       or similarity(r1.first_name, r2.first_name) >= 0.80)
  then match

# Address similarity is usually already known by now, so it runs before
# the two Soundex codes.
rule phonetic-names-address:
  if not empty(r1.address) and not empty(r2.address)
  and similarity(r1.address, r2.address) >= 0.75
  and sounds_like(r1.last_name, r2.last_name)
  and sounds_like(r1.first_name, r2.first_name)
  and ((r1.zip == r2.zip and not empty(r1.zip))
       or (not empty(r1.city) and not empty(r2.city)
           and (r1.city == r2.city
                or similarity(r1.city, r2.city) >= 0.80)
           and r1.state == r2.state and not empty(r1.state)))
  then match

# Marriage / alias: the surname may be completely different; everything
# else must line up exactly.
rule last-name-changed:
  if r1.first_name == r2.first_name and not empty(r1.first_name)
  and r1.address == r2.address and not empty(r1.address)
  and r1.apartment == r2.apartment and not empty(r1.apartment)
  and r1.zip == r2.zip and not empty(r1.zip)
  then match

rule names-zip-address:
  if r1.last_name == r2.last_name and not empty(r1.last_name)
  and not empty(r1.first_name) and not empty(r2.first_name)
  and (same_name(r1.first_name, r2.first_name)
       or initial_match(r1.first_name, r2.first_name)
       or similarity(r1.first_name, r2.first_name) >= 0.80)
  and not empty(r1.address) and not empty(r2.address)
  and similarity(r1.address, r2.address) >= 0.75
  and r1.zip == r2.zip and not empty(r1.zip)
  then match

rule apartment-corroborated:
  if r1.address == r2.address and not empty(r1.address)
  and r1.apartment == r2.apartment and not empty(r1.apartment)
  and not empty(r1.last_name) and not empty(r2.last_name)
  and similarity(r1.last_name, r2.last_name) >= 0.70
  and ((r1.zip == r2.zip and not empty(r1.zip))
       or (not empty(r1.city) and not empty(r2.city)
           and (r1.city == r2.city
                or similarity(r1.city, r2.city) >= 0.80)
           and r1.state == r2.state and not empty(r1.state)))
  and ((not empty(r1.first_name) and not empty(r2.first_name)
        and (same_name(r1.first_name, r2.first_name)
             or initial_match(r1.first_name, r2.first_name)
             or similarity(r1.first_name, r2.first_name) >= 0.80))
       or (empty(r1.first_name) and not empty(r2.first_name))
       or (not empty(r1.first_name) and empty(r2.first_name)))
  then match

# Weighted whole-record similarity with no SSN contradiction. Each field
# present on either side adds its weight to the denominator and its
# weighted similarity to the numerator, in the order ssn, last name, first
# name, address, city, zip; an absent field adds exactly 0. The SSN test
# comes first: it is cheap and fails for most pairs. Two blank records
# score 0 / 0, which is 0, so the rule cannot merge them.
rule aggregate-similarity:
  if (empty(r1.ssn) or empty(r2.ssn) or damerau(r1.ssn, r2.ssn) <= 1)
  and (3 * either_present(r1.ssn, r2.ssn) * similarity(r1.ssn, r2.ssn)
       + 3 * either_present(r1.last_name, r2.last_name)
           * similarity(r1.last_name, r2.last_name)
       + 2 * either_present(r1.first_name, r2.first_name)
           * similarity(r1.first_name, r2.first_name)
       + 2 * either_present(r1.address, r2.address)
           * similarity(r1.address, r2.address)
       + either_present(r1.city, r2.city) * similarity(r1.city, r2.city)
       + either_present(r1.zip, r2.zip) * similarity(r1.zip, r2.zip))
      / (3 * either_present(r1.ssn, r2.ssn)
         + 3 * either_present(r1.last_name, r2.last_name)
         + 2 * either_present(r1.first_name, r2.first_name)
         + 2 * either_present(r1.address, r2.address)
         + either_present(r1.city, r2.city)
         + either_present(r1.zip, r2.zip))
      >= 0.90
  then match
)RULES";

const RuleProgram& Builtin() {
  static const RuleProgram* const program = [] {
    Result<RuleProgram> compiled =
        RuleProgram::Compile(kEmployeeRules, employee::MakeSchema());
    if (!compiled.ok()) {
      std::fprintf(stderr, "built-in employee theory: %s\n",
                   compiled.status().ToString().c_str());
      std::abort();
    }
    return new RuleProgram(std::move(*compiled));
  }();
  return *program;
}

}  // namespace

std::string_view EmployeeRulesText() { return kEmployeeRules; }

EmployeeTheory::EmployeeTheory() : RuleProgram(Builtin()) {}

TheoryFactory EmployeeTheory::Factory() {
  return [] { return std::make_unique<EmployeeTheory>(); };
}

}  // namespace mergepurge
