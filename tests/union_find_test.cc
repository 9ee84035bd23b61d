#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pair_set.h"
#include "core/union_find.h"
#include "util/random.h"

namespace mergepurge {
namespace {

TEST(UnionFindTest, InitiallyAllSingletons) {
  UnionFind uf(5);
  EXPECT_EQ(uf.NumSets(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(uf.Find(i), i);
    EXPECT_EQ(uf.SetSize(i), 1u);
  }
}

TEST(UnionFindTest, UnionMergesAndCounts) {
  UnionFind uf(4);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));  // Already together.
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_EQ(uf.NumSets(), 2u);
  EXPECT_TRUE(uf.SameSet(0, 1));
  EXPECT_FALSE(uf.SameSet(0, 2));
  EXPECT_TRUE(uf.Union(0, 3));
  EXPECT_EQ(uf.NumSets(), 1u);
  EXPECT_EQ(uf.SetSize(2), 4u);
}

TEST(UnionFindTest, TransitivityChain) {
  UnionFind uf(100);
  for (uint32_t i = 0; i + 1 < 100; ++i) uf.Union(i, i + 1);
  EXPECT_TRUE(uf.SameSet(0, 99));
  EXPECT_EQ(uf.NumSets(), 1u);
}

TEST(UnionFindTest, ComponentLabelsConsistent) {
  UnionFind uf(6);
  uf.Union(0, 2);
  uf.Union(2, 4);
  uf.Union(1, 5);
  auto labels = uf.ComponentLabels();
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[0], labels[4]);
  EXPECT_EQ(labels[1], labels[5]);
  EXPECT_NE(labels[0], labels[1]);
  EXPECT_NE(labels[3], labels[0]);
  EXPECT_NE(labels[3], labels[1]);
}

// min_ follows its set across Grow and through unions whose surviving
// root is not the smallest element (union by size picks the bigger set).
TEST(UnionFindTest, LabelIsSmallestElementAcrossGrowAndUnion) {
  UnionFind uf(3);
  EXPECT_TRUE(uf.Union(2, 1));
  uf.Grow(7);
  for (uint32_t i = 3; i < 7; ++i) EXPECT_EQ(uf.Label(i), i);
  uf.Union(3, 4);
  uf.Union(4, 5);
  EXPECT_EQ(uf.Label(5), 3u);
  // {3,4,5} outweighs {1,2}, so its root survives; the label is still 1.
  uf.Union(5, 2);
  EXPECT_NE(uf.Find(1), 1u);
  EXPECT_NE(uf.Find(2), 2u);
  uf.Grow(5);  // No-op: smaller than size().
  uf.Union(6, 0);
  EXPECT_EQ(uf.ComponentLabels(),
            (std::vector<uint32_t>{0, 1, 1, 1, 1, 1, 0}));
  for (uint32_t i = 0; i < 7; ++i) {
    EXPECT_EQ(uf.Label(i), uf.ComponentLabels()[i]);
  }
}

// Property: union-find agrees with a brute-force equivalence relation.
class UnionFindPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnionFindPropertyTest, MatchesBruteForce) {
  Rng rng(GetParam());
  const uint32_t n = 60;
  UnionFind uf(n);
  // Brute force: map element -> set id, merge by relabeling.
  std::vector<uint32_t> label(n);
  for (uint32_t i = 0; i < n; ++i) label[i] = i;

  for (int op = 0; op < 200; ++op) {
    uint32_t a = static_cast<uint32_t>(rng.NextBounded(n));
    uint32_t b = static_cast<uint32_t>(rng.NextBounded(n));
    uf.Union(a, b);
    uint32_t from = label[b], to = label[a];
    for (uint32_t i = 0; i < n; ++i) {
      if (label[i] == from) label[i] = to;
    }
    // Spot-check consistency after each mutation on a few pairs.
    for (int check = 0; check < 10; ++check) {
      uint32_t x = static_cast<uint32_t>(rng.NextBounded(n));
      uint32_t y = static_cast<uint32_t>(rng.NextBounded(n));
      ASSERT_EQ(uf.SameSet(x, y), label[x] == label[y]);
    }
  }
  // Set sizes agree, and every label is the smallest element of its set.
  std::map<uint32_t, uint32_t> sizes;
  std::map<uint32_t, uint32_t> smallest;
  for (uint32_t i = 0; i < n; ++i) {
    ++sizes[label[i]];
    smallest.emplace(label[i], i);  // Ascending i: the first one wins.
  }
  const std::vector<uint32_t> labels = uf.ComponentLabels();
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(uf.SetSize(i), sizes[label[i]]);
    EXPECT_EQ(uf.Label(i), smallest[label[i]]);
    EXPECT_EQ(labels[i], smallest[label[i]]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionFindPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(PairSetTest, ConstructorOrientsAndDeduplicates) {
  const PairSet pairs(
      std::vector<uint64_t>{PackMatch(3, 7), PackMatch(7, 3)});
  EXPECT_EQ(pairs.size(), 1u);  // Unordered: the same pair.
  EXPECT_TRUE(pairs.Contains(3, 7));
  EXPECT_TRUE(pairs.Contains(7, 3));
  EXPECT_FALSE(pairs.Contains(3, 8));
}

TEST(PairSetTest, SelfPairsDropped) {
  const PairSet pairs(std::vector<uint64_t>{PackMatch(5, 5)});
  EXPECT_FALSE(pairs.Contains(5, 5));
  EXPECT_TRUE(pairs.empty());
}

TEST(PairSetTest, MergeUnions) {
  PairSet a(std::vector<uint64_t>{PackMatch(1, 2)});
  const PairSet b(std::vector<uint64_t>{PackMatch(2, 3), PackMatch(1, 2)});
  a.Merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(a.Contains(2, 3));
}

TEST(PairSetTest, PackedIsSortedAndNormalized) {
  const PairSet pairs(std::vector<uint64_t>{
      PackMatch(9, 1), PackMatch(2, 3), PackMatch(0, 5)});
  EXPECT_EQ(pairs.packed(),
            (std::vector<uint64_t>{PackMatch(0, 5), PackMatch(1, 9),
                                   PackMatch(2, 3)}));
}

TEST(PairSetTest, ForEachVisitsAllInAscendingOrder) {
  const PairSet pairs(std::vector<uint64_t>{PackMatch(4, 3), PackMatch(1, 2)});
  std::vector<std::pair<TupleId, TupleId>> seen;
  pairs.ForEach([&seen](TupleId a, TupleId b) { seen.emplace_back(a, b); });
  EXPECT_EQ(seen, (std::vector<std::pair<TupleId, TupleId>>{{1, 2}, {3, 4}}));
}

// Construction, Merge, Contains and ForEach against a std::set
// of (lo, hi) pairs, over random matches in a small id range, so repeats,
// both orientations and self-pairs all occur.
class PairSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PairSetPropertyTest, MatchesSetOracle) {
  using Oracle = std::set<std::pair<TupleId, TupleId>>;
  constexpr TupleId kIds = 40;
  Rng rng(GetParam());
  auto random_matches = [&rng](Oracle* oracle) {
    std::vector<uint64_t> matches;
    const size_t count = rng.NextBounded(300);
    for (size_t i = 0; i < count; ++i) {
      const TupleId a = static_cast<TupleId>(rng.NextBounded(kIds));
      const TupleId b = static_cast<TupleId>(rng.NextBounded(kIds));
      matches.push_back(PackMatch(a, b));
      if (a != b) oracle->emplace(std::min(a, b), std::max(a, b));
    }
    return matches;
  };
  auto expect_equal = [](const PairSet& pairs, const Oracle& oracle) {
    std::vector<std::pair<TupleId, TupleId>> seen;
    pairs.ForEach([&seen](TupleId a, TupleId b) { seen.emplace_back(a, b); });
    EXPECT_EQ(seen, (std::vector<std::pair<TupleId, TupleId>>(
                        oracle.begin(), oracle.end())));
    EXPECT_EQ(pairs.size(), oracle.size());
    for (TupleId a = 0; a < kIds; ++a) {
      for (TupleId b = 0; b < kIds; ++b) {
        EXPECT_EQ(pairs.Contains(a, b),
                  oracle.count({std::min(a, b), std::max(a, b)}) == 1)
            << a << " " << b;
      }
    }
  };
  Oracle oracle_a;
  Oracle oracle_b;
  PairSet a(random_matches(&oracle_a));
  const PairSet b(random_matches(&oracle_b));
  expect_equal(a, oracle_a);
  expect_equal(b, oracle_b);
  a.Merge(PairSet());
  expect_equal(a, oracle_a);
  a.Merge(b);
  oracle_a.insert(oracle_b.begin(), oracle_b.end());
  expect_equal(a, oracle_a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairSetPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace mergepurge
