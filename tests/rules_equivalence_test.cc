// Golden reference for the built-in employee theory. Before the theory
// became compiled rule text, it was a hand-coded C++ rule cascade; these
// digests were captured from that cascade and pin the compiled rule text
// to it, pair by pair and fired rule by fired rule, with no exemption for
// any rule (aggregate-similarity included).
//
// Per generator seed the test enumerates a fixed set of pairs: every
// window neighbour (w = 10) under each of the three standard sort keys,
// every pair of records that share an original (true duplicates), and
// pseudo-random pairs. For each pair it records the index of the rule
// that fires (-1 for none). The golden entry holds the count of pairs per
// fired rule and an order-dependent digest of the (a, b, rule) sequence.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "keys/key_builder.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"
#include "util/random.h"

namespace mergepurge {
namespace {

constexpr size_t kWindow = 10;
constexpr size_t kRandomPairs = 20000;

// fired[0] counts pairs no rule matched; fired[i + 1] counts rule i of
// the built-in theory's 26.
using FiredCounts = std::array<uint32_t, 26 + 1>;

struct Golden {
  uint64_t seed;
  uint64_t pairs;
  FiredCounts fired;
  uint64_t digest;
};

// Captured from the hand-coded cascade with its default options. Seeds 33
// and 44 include pairs that only aggregate-similarity matches.
constexpr Golden kGolden[] = {
    {11, 124853, {113022, 338, 1937, 820, 2197, 0, 57, 1277, 55, 2639, 1058,
                  117, 271, 323, 0, 6, 0, 61, 92, 0, 0, 41, 434, 35, 5, 68, 0},
     0xdfff815d4758f6a0ull},
    {22, 124085, {112178, 354, 2042, 743, 2138, 0, 26, 1296, 43, 2633, 1038,
                  108, 299, 347, 0, 30, 0, 108, 59, 0, 0, 51, 485, 28, 20, 59,
                  0},
     0xd00826c76ab0fe20ull},
    {33, 126620, {114117, 427, 1864, 734, 2424, 0, 54, 1601, 54, 2637, 1338,
                  131, 178, 260, 0, 10, 0, 75, 70, 0, 0, 39, 507, 38, 0, 58,
                  4},
     0x646ec9be5a350688ull},
    {44, 125881, {113665, 417, 1852, 741, 2151, 0, 31, 1227, 51, 2886, 1170,
                  108, 278, 353, 0, 16, 0, 121, 76, 0, 0, 56, 584, 36, 6, 50,
                  6},
     0x7ddabd9a4013c618ull},
};

std::vector<std::pair<TupleId, TupleId>> PairsToCheck(const Dataset& dataset,
                                                      const GroundTruth& truth,
                                                      uint64_t seed) {
  std::vector<std::pair<TupleId, TupleId>> pairs;
  const size_t n = dataset.size();
  for (const KeySpec& spec : StandardThreeKeys()) {
    const std::vector<std::string> keys = KeyBuilder(spec).BuildKeys(dataset);
    std::vector<TupleId> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&keys](TupleId x, TupleId y) {
      return keys[x] < keys[y];
    });
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < std::min(n, i + kWindow); ++j) {
        pairs.emplace_back(order[i], order[j]);
      }
    }
  }
  std::unordered_map<uint32_t, std::vector<TupleId>> by_origin;
  for (TupleId t = 0; t < n; ++t) by_origin[truth.origin_of(t)].push_back(t);
  for (TupleId t = 0; t < n; ++t) {
    const std::vector<TupleId>& group = by_origin[truth.origin_of(t)];
    if (group.front() != t) continue;  // Each group once, in tuple order.
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        pairs.emplace_back(group[i], group[j]);
      }
    }
  }
  Rng rng(seed * 7919 + 1);
  for (size_t i = 0; i < kRandomPairs; ++i) {
    pairs.emplace_back(static_cast<TupleId>(rng.NextBounded(n)),
                       static_cast<TupleId>(rng.NextBounded(n)));
  }
  return pairs;
}

uint64_t Mix(uint64_t digest, uint64_t value) {
  // FNV-1a over the value's eight bytes.
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xff;
    digest *= 0x100000001b3ull;
  }
  return digest;
}

void PrintTo(const Golden& golden, std::ostream* os) {
  *os << "seed " << golden.seed;
}

class RulesEquivalenceTest : public ::testing::TestWithParam<Golden> {};

TEST_P(RulesEquivalenceTest, BuiltinTheoryMatchesCapturedCascade) {
  const Golden& golden = GetParam();
  GeneratorConfig config;
  config.num_records = 1500;
  config.duplicate_selection_rate = 0.6;
  config.max_duplicates_per_record = 4;
  config.seed = golden.seed;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());
  ConditionEmployeeDataset(&db->dataset);

  EmployeeTheory theory;
  FiredCounts fired{};
  uint64_t digest = 0xcbf29ce484222325ull;
  const auto pairs = PairsToCheck(db->dataset, db->truth, golden.seed);
  for (const auto& [a, b] : pairs) {
    const int rule =
        theory.MatchingRule(db->dataset.record(a), db->dataset.record(b));
    ++fired[static_cast<size_t>(rule + 1)];
    digest = Mix(Mix(Mix(digest, a), b), static_cast<uint64_t>(rule + 1));
  }

  EXPECT_EQ(pairs.size(), golden.pairs);
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], golden.fired[i])
        << (i == 0 ? std::string("no rule")
                   : "rule " + theory.rule_name(i - 1));
  }
  EXPECT_EQ(digest, golden.digest);
  if (::testing::Test::HasFailure()) {
    std::string counts;
    for (uint32_t count : fired) counts += std::to_string(count) + ", ";
    std::printf("measured: {%llu, %zu, {%s}, 0x%016llxull}\n",
                static_cast<unsigned long long>(golden.seed), pairs.size(),
                counts.c_str(), static_cast<unsigned long long>(digest));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RulesEquivalenceTest,
                         ::testing::ValuesIn(kGolden));

}  // namespace
}  // namespace mergepurge
