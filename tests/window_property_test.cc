// Scanner-level property tests for the figure-5 band invariant: the union
// of window scans over ANY fragmentation whose fragments overlap by w-1
// and whose fresh regions tile the order equals the global window scan —
// for arbitrary (n, w, P) combinations, not just the executors' defaults.

#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "core/window_scanner.h"
#include "gen/generator.h"
#include "parallel/fragment_scan.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"
#include "util/random.h"

namespace mergepurge {
namespace {

// Deterministic theory on tuple ids: matches when ids are congruent mod k.
// Exercises the scanner without string costs and with dense matches.
class ModTheory final : public EquationalTheory {
 public:
  explicit ModTheory(TupleId k) : k_(k) {}
  bool Matches(const Record& a, const Record& b) const override {
    ++count_;
    auto value = [](const Record& r) {
      return std::strtoul(std::string(r.field(0)).c_str(), nullptr, 10);
    };
    return value(a) % k_ == value(b) % k_;
  }
  uint64_t comparison_count() const override { return count_; }
  void AddComparisons(uint64_t n) const override { count_ += n; }
  std::unique_ptr<EquationalTheory> Clone() const override {
    return std::make_unique<ModTheory>(*this);
  }

 private:
  TupleId k_;
  mutable uint64_t count_ = 0;
};

Dataset IdDataset(size_t n) {
  Dataset d(Schema({"id"}));
  for (size_t i = 0; i < n; ++i) d.Append(Record({std::to_string(i)}));
  return d;
}

using GridParam = std::tuple<size_t /*n*/, size_t /*w*/, size_t /*p*/>;

class BandInvariantTest : public ::testing::TestWithParam<GridParam> {};

TEST_P(BandInvariantTest, OverlappingFragmentsReproduceGlobalScan) {
  auto [n, w, p] = GetParam();
  Dataset d = IdDataset(n);
  // Shuffled order so fragments cut through arbitrary neighborhoods.
  std::vector<TupleId> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(n * 31 + w * 7 + p);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }

  ModTheory theory(5);
  WindowScanner scanner(w);
  PairSet global;
  const ScanStats global_stats = scanner.Scan(d, order, theory, &global);

  // Fragments compare each pair once: the bands are context only, so the
  // matches list has no repeats and the counts equal the global scan's.
  std::vector<std::pair<TupleId, TupleId>> matches;
  ScanStats stats;
  for (const Fragment& fragment : MakeOverlappingFragments(n, p, w)) {
    stats += scanner.ScanRange(d, order, fragment.begin, fragment.fresh,
                               fragment.end, theory, &matches);
  }
  EXPECT_EQ(stats.windows, global_stats.windows);
  EXPECT_EQ(stats.comparisons, global_stats.comparisons);
  EXPECT_EQ(stats.matches, global_stats.matches);
  EXPECT_EQ(matches.size(), global.size());
  PairSet fragmented;
  for (const auto& [a, b] : matches) fragmented.Add(a, b);
  EXPECT_EQ(fragmented.size(), global.size())
      << "n=" << n << " w=" << w << " p=" << p;
  global.ForEach([&](TupleId a, TupleId b) {
    EXPECT_TRUE(fragmented.Contains(a, b));
  });
  // And nothing extra.
  fragmented.ForEach([&](TupleId a, TupleId b) {
    EXPECT_TRUE(global.Contains(a, b));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BandInvariantTest,
    ::testing::Combine(::testing::Values(1u, 2u, 7u, 50u, 173u),
                       ::testing::Values(2u, 3u, 8u),
                       ::testing::Values(1u, 2u, 5u, 16u)));

}  // namespace
}  // namespace mergepurge
