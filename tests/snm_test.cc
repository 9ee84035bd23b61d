// Window scanner + sorted-neighborhood method tests, including the
// property that a window of size N degenerates to the full quadratic scan.

#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/sorted_neighborhood.h"
#include "core/window_scanner.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"

namespace mergepurge {
namespace {

// The quadratic baseline: compares all N*(N-1)/2 pairs. "We presume a
// pure quadratic time process ... is infeasible" (paper §2.1) at
// production sizes; on small databases it is the theory's accuracy gold
// standard, the oracle a full-width window must reproduce.
PassResult NaiveAllPairs(const Dataset& dataset,
                         const EquationalTheory& theory) {
  PassResult result;
  const size_t n = dataset.size();
  std::vector<uint64_t> matches;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      ++result.comparisons;
      if (theory.Matches(dataset.record(static_cast<TupleId>(i)),
                         dataset.record(static_cast<TupleId>(j)))) {
        ++result.matches;
        matches.push_back(PackMatch(static_cast<TupleId>(i),
                                    static_cast<TupleId>(j)));
      }
    }
  }
  result.pairs = PairSet(std::move(matches));
  return result;
}

// A theory that matches records whose first field differs by at most 1
// numerically; lets tests control matching precisely.
class NumericTheory final : public EquationalTheory {
 public:
  bool Matches(const Record& a, const Record& b) const override {
    ++count_;
    long x = std::strtol(std::string(a.field(0)).c_str(), nullptr, 10);
    long y = std::strtol(std::string(b.field(0)).c_str(), nullptr, 10);
    return std::labs(x - y) <= 1;
  }
  uint64_t comparison_count() const override { return count_; }
  void AddComparisons(uint64_t n) const override { count_ += n; }
  std::unique_ptr<EquationalTheory> Clone() const override {
    return std::make_unique<NumericTheory>(*this);
  }

 private:
  mutable uint64_t count_ = 0;
};

Dataset NumberDataset(const std::vector<int>& values) {
  Dataset d(Schema({"value"}));
  for (int v : values) d.Append(Record({std::to_string(v)}));
  return d;
}

TEST(WindowScannerTest, ComparesOnlyWithinWindow) {
  // Order 0..4, window 2: only adjacent comparisons -> 4 comparisons.
  Dataset d = NumberDataset({10, 20, 30, 40, 50});
  std::vector<TupleId> order = {0, 1, 2, 3, 4};
  NumericTheory theory;
  PairSet pairs;
  ScanStats stats = WindowScanner(2).Scan(d, order, theory, &pairs);
  EXPECT_EQ(stats.comparisons, 4u);
  EXPECT_EQ(pairs.size(), 0u);
}

TEST(WindowScannerTest, ComparisonCountFormula) {
  // For n records and window w: (n-1) + (n-2) + ... capped at w-1 each:
  // total = sum_{i=1}^{n-1} min(i, w-1).
  for (size_t n : {5u, 10u, 23u}) {
    for (size_t w : {2u, 4u, 7u}) {
      std::vector<int> values(n);
      std::iota(values.begin(), values.end(), 0);
      Dataset d = NumberDataset(values);
      std::vector<TupleId> order(n);
      std::iota(order.begin(), order.end(), 0);
      NumericTheory theory;
      PairSet pairs;
      ScanStats stats = WindowScanner(w).Scan(d, order, theory, &pairs);
      uint64_t expected = 0;
      for (size_t i = 1; i < n; ++i) {
        expected += std::min(i, w - 1);
      }
      EXPECT_EQ(stats.comparisons, expected) << "n=" << n << " w=" << w;
    }
  }
}

TEST(WindowScannerTest, FindsAdjacentMatches) {
  Dataset d = NumberDataset({1, 2, 10, 11, 30});
  std::vector<TupleId> order = {0, 1, 2, 3, 4};
  NumericTheory theory;
  PairSet pairs;
  WindowScanner(3).Scan(d, order, theory, &pairs);
  EXPECT_TRUE(pairs.Contains(0, 1));
  EXPECT_TRUE(pairs.Contains(2, 3));
  EXPECT_EQ(pairs.size(), 2u);
}

TEST(WindowScannerTest, WindowTooSmallOrEmptyRangeIsNoop) {
  Dataset d = NumberDataset({1, 2});
  std::vector<TupleId> order = {0, 1};
  NumericTheory theory;
  PairSet pairs;
  EXPECT_EQ(WindowScanner(1).Scan(d, order, theory, &pairs).comparisons,
            0u);
  std::vector<uint64_t> matches;
  EXPECT_EQ(WindowScanner(3)
                .ScanRange(d, order, 1, 1, 1, theory, &matches)
                .comparisons,
            0u);
  EXPECT_TRUE(matches.empty());
}

TEST(WindowScannerTest, FullWindowEqualsAllPairs) {
  // Window >= N makes SNM equivalent to the quadratic scan on the same
  // order.
  GeneratorConfig config;
  config.num_records = 60;
  config.duplicate_selection_rate = 0.5;
  config.seed = 21;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());
  ConditionEmployeeDataset(&db->dataset);

  EmployeeTheory theory;
  std::vector<TupleId> order(db->dataset.size());
  std::iota(order.begin(), order.end(), 0);
  PairSet window_pairs;
  WindowScanner(db->dataset.size() + 1)
      .Scan(db->dataset, order, theory, &window_pairs);

  PassResult naive = NaiveAllPairs(db->dataset, theory);
  EXPECT_EQ(window_pairs.size(), naive.pairs.size());
  naive.pairs.ForEach([&window_pairs](TupleId a, TupleId b) {
    EXPECT_TRUE(window_pairs.Contains(a, b));
  });
}

TEST(SortedNeighborhoodTest, SortByKeyOrdersKeys) {
  GeneratorConfig config;
  config.num_records = 200;
  config.seed = 4;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());
  KeySpec key = LastNameKey();
  auto order = SortedNeighborhood::SortByKey(db->dataset, key);
  KeyBuilder builder(key);
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(builder.BuildKey(db->dataset.record(order[i - 1])),
              builder.BuildKey(db->dataset.record(order[i])));
  }
}

TEST(SortedNeighborhoodTest, RejectsTinyWindow) {
  Dataset d = NumberDataset({1});
  NumericTheory theory;
  KeySpec key{"k", {KeyComponent::Full(0)}};
  EXPECT_FALSE(SortedNeighborhood(1).Run(d, key, theory).ok());
}

TEST(SortedNeighborhoodTest, RejectsInvalidKey) {
  Dataset d = NumberDataset({1});
  NumericTheory theory;
  KeySpec key{"k", {KeyComponent::Full(9)}};
  EXPECT_FALSE(SortedNeighborhood(5).Run(d, key, theory).ok());
}

TEST(SortedNeighborhoodTest, FindsPlantedDuplicates) {
  // Exact duplicates share identical keys, so they sort adjacent and any
  // window >= 2 finds them.
  Dataset d(employee::MakeSchema());
  Record r;
  r.set_field(employee::kSsn, "123456789");
  r.set_field(employee::kFirstName, "JOHN");
  r.set_field(employee::kLastName, "SMITH");
  r.set_field(employee::kAddress, "1 MAIN ST");
  r.set_field(employee::kCity, "NEW YORK");
  r.set_field(employee::kState, "NY");
  r.set_field(employee::kZip, "10027");
  TupleId a = d.Append(r);
  // Pad with unrelated records.
  for (int i = 0; i < 50; ++i) {
    Record filler;
    filler.set_field(employee::kSsn, std::to_string(100000000 + i * 37));
    filler.set_field(employee::kFirstName, "F" + std::to_string(i));
    filler.set_field(employee::kLastName,
                     std::string(1, 'A' + (i % 26)) + "XLNAME");
    filler.set_field(employee::kAddress, std::to_string(i) + " ELM ST");
    filler.set_field(employee::kCity, "CHICAGO");
    filler.set_field(employee::kState, "IL");
    filler.set_field(employee::kZip, "60601");
    d.Append(filler);
  }
  TupleId b = d.Append(r);

  EmployeeTheory theory;
  auto pass = SortedNeighborhood(2).Run(d, LastNameKey(), theory);
  ASSERT_TRUE(pass.ok());
  EXPECT_TRUE(pass->pairs.Contains(a, b));
}

TEST(SortedNeighborhoodTest, WiderWindowFindsAtLeastAsMuch) {
  GeneratorConfig config;
  config.num_records = 800;
  config.duplicate_selection_rate = 0.5;
  config.seed = 31;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());
  ConditionEmployeeDataset(&db->dataset);

  EmployeeTheory theory;
  auto narrow = SortedNeighborhood(3).Run(db->dataset, LastNameKey(),
                                          theory);
  auto wide = SortedNeighborhood(12).Run(db->dataset, LastNameKey(),
                                         theory);
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_GE(wide->pairs.size(), narrow->pairs.size());
  // Every narrow pair is also found by the wide window (same sort order).
  narrow->pairs.ForEach([&](TupleId a, TupleId b) {
    EXPECT_TRUE(wide->pairs.Contains(a, b));
  });
  EXPECT_GT(wide->comparisons, narrow->comparisons);
}

TEST(NaiveAllPairsTest, ComparisonCountIsQuadratic) {
  Dataset d = NumberDataset({1, 5, 9, 13});
  NumericTheory theory;
  PassResult result = NaiveAllPairs(d, theory);
  EXPECT_EQ(result.comparisons, 6u);
  EXPECT_EQ(result.pairs.size(), 0u);
}

}  // namespace
}  // namespace mergepurge
