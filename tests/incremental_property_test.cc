// Deeper incremental-engine properties: monotone pair accumulation, the
// entity count, agreement between incremental components and an offline
// closure over the same accumulated pairs, each batch's pairs and
// comparisons against a naive re-sort-and-scan oracle, and the probe
// against a singleton batch. That any batching keeps every pair of a
// from-scratch run is the cross-path contract (contract_test).

#include <algorithm>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "core/multipass.h"
#include "core/window_scanner.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "obs/metrics.h"
#include "rules/employee_theory.h"
#include "util/random.h"

namespace mergepurge {
namespace {

std::vector<Dataset> SplitEvery(const Dataset& all, size_t stride) {
  std::vector<Dataset> batches;
  for (size_t start = 0; start < all.size(); start += stride) {
    Dataset batch(all.schema());
    for (size_t t = start; t < std::min(all.size(), start + stride); ++t) {
      batch.Append(all.record(static_cast<TupleId>(t)));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

class IncrementalPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_records = 500;
    config.duplicate_selection_rate = 0.6;
    config.max_duplicates_per_record = 3;
    config.seed = GetParam();
    auto db = DatabaseGenerator(config).Generate();
    ASSERT_TRUE(db.ok());
    raw_ = std::move(db->dataset);
  }

  MergePurgeOptions Options() const {
    MergePurgeOptions options;
    options.keys = {LastNameKey(), AddressKey()};
    options.window = 6;
    return options;
  }

  Dataset raw_;
  EmployeeTheory theory_;
};

TEST_P(IncrementalPropertyTest, PairsAccumulateMonotonically) {
  IncrementalMergePurge engine(Options());
  size_t previous_pairs = 0;
  size_t previous_records = 0;
  for (const Dataset& batch : SplitEvery(raw_, 120)) {
    ASSERT_TRUE(engine.AddBatch(batch, theory_).ok());
    EXPECT_GE(engine.pairs().size(), previous_pairs);
    EXPECT_GT(engine.size(), previous_records);
    previous_pairs = engine.pairs().size();
    previous_records = engine.size();
  }
}

TEST_P(IncrementalPropertyTest, ComponentsEqualOfflineClosureOfPairs) {
  IncrementalMergePurge engine(Options());
  for (const Dataset& batch : SplitEvery(raw_, 100)) {
    ASSERT_TRUE(engine.AddBatch(batch, theory_).ok());
  }
  auto incremental = engine.ComponentLabels();
  auto offline = TransitiveClosure(engine.pairs(), engine.size());
  ASSERT_EQ(incremental.size(), offline.size());
  // Same partition (labels may differ; co-membership must not).
  for (size_t i = 0; i < incremental.size(); i += 3) {
    for (size_t j = i + 1; j < std::min(incremental.size(), i + 40); ++j) {
      EXPECT_EQ(incremental[i] == incremental[j],
                offline[i] == offline[j])
          << i << "," << j;
    }
  }
}

TEST_P(IncrementalPropertyTest, EntityCountMatchesClosure) {
  IncrementalMergePurge engine(Options());
  for (const Dataset& batch : SplitEvery(raw_, 150)) {
    ASSERT_TRUE(engine.AddBatch(batch, theory_).ok());
  }
  // NumEntities (live union-find) == distinct labels.
  auto labels = engine.ComponentLabels();
  std::sort(labels.begin(), labels.end());
  size_t distinct =
      static_cast<size_t>(std::unique(labels.begin(), labels.end()) -
                          labels.begin());
  EXPECT_EQ(engine.NumEntities(), distinct);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPropertyTest,
                         ::testing::Values(101, 202, 303));

// What one batch must find, worked out naively: every key's records
// re-sorted by (key, tid) from scratch, every window pair with a tuple id
// of the batch (>= first_new), and the theory applied pair by pair.
struct NaiveBatch {
  PairSet pairs;
  uint64_t comparisons = 0;
  uint64_t matches = 0;  // Matching comparisons, over all keys.
  // Positions, over all keys, whose entering record meets a new record
  // in its window: what the engine's scan plan covers.
  size_t entering = 0;
  // Longest stretch of the order that the batch's disturbed windows cover
  // without a gap, over all keys: one scan range of the engine.
  size_t longest_run = 0;
};

NaiveBatch ScanBatchNaively(const Dataset& records,
                            const MergePurgeOptions& options,
                            TupleId first_new,
                            const EquationalTheory& theory) {
  const size_t w = options.window;
  NaiveBatch batch;
  for (const KeySpec& spec : options.keys) {
    const KeyBuilder builder(spec);
    std::vector<std::pair<std::string, TupleId>> sorted;
    for (TupleId t = 0; t < records.size(); ++t) {
      sorted.emplace_back(builder.BuildKey(records.record(t)), t);
    }
    std::sort(sorted.begin(), sorted.end());
    size_t run_start = 0;
    size_t last_new = 0;
    bool in_run = false;
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (sorted[i].second >= first_new) {
        if (!in_run || i > last_new + w) run_start = i;
        in_run = true;
        last_new = i;
        batch.longest_run = std::max(batch.longest_run, i + w - run_start);
      }
      if (in_run && i - last_new < w) ++batch.entering;
      for (size_t j = i >= w - 1 ? i - (w - 1) : 0; j < i; ++j) {
        const TupleId a = sorted[j].second;
        const TupleId b = sorted[i].second;
        if (a < first_new && b < first_new) continue;
        ++batch.comparisons;
        if (theory.Matches(records.record(a), records.record(b))) {
          ++batch.matches;
          batch.pairs.Add(a, b);
        }
      }
    }
  }
  return batch;
}

Dataset Slice(const Dataset& all, size_t begin, size_t end) {
  Dataset batch(all.schema());
  for (size_t t = begin; t < end; ++t) {
    batch.Append(all.record(static_cast<TupleId>(t)));
  }
  return batch;
}

Dataset Generate(size_t num_records, uint64_t seed) {
  GeneratorConfig config;
  config.num_records = num_records;
  config.duplicate_selection_rate = 0.5;
  config.max_duplicates_per_record = 3;
  config.seed = seed;
  auto db = DatabaseGenerator(config).Generate();
  EXPECT_TRUE(db.ok());
  return std::move(db->dataset);
}

MergePurgeOptions ThreeKeys() {
  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  options.window = 10;
  return options;
}

uint64_t RulesFiredTotal() {
  uint64_t total = 0;
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("rules.fired.", 0) == 0) total += value;
  }
  return total;
}

// After every batch of seeded random splits, the engine's pairs equal the
// union of the naive batches so far, and the theory ran exactly the naive
// comparisons: an extra old-old comparison fails as surely as a missing
// pair. The first batch (one range through the whole order) spans more
// than two scan chunks, and a batch twice the size of the residents
// inserts densely enough that its runs cross chunk boundaries. Those two
// batches enter enough positions to scan on the pool, the batches of at
// most 20 records scan on the calling thread, and both paths return the
// new-pair count, report the closure delta and flush one rule firing per
// match.
TEST(IncrementalOracleTest, EveryBatchMakesExactlyTheNaivePairs) {
  constexpr size_t kChunk = WindowScanner::kScanChunk;
  for (uint64_t seed : {7u, 8u}) {
    SCOPED_TRACE(seed);
    const Dataset raw = Generate(4000, seed);
    ASSERT_GT(raw.size(), 7 * kChunk);
    Rng rng(seed);
    std::vector<size_t> cuts = {2 * kChunk + 1 + rng.NextBounded(200)};
    cuts.push_back(3 * cuts.back());  // Dense: two new per resident.
    while (cuts.back() < raw.size()) {
      const size_t kind = rng.NextBounded(3);
      const size_t size = kind == 0 ? 1 : kind == 1 ? 1 + rng.NextBounded(20)
                                                    : 1 + rng.NextBounded(400);
      cuts.push_back(std::min(raw.size(), cuts.back() + size));
    }

    const MergePurgeOptions options = ThreeKeys();
    IncrementalMergePurge engine(options);
    EmployeeTheory theory;
    EmployeeTheory naive_theory;
    PairSet expected;
    size_t begin = 0;
    for (size_t batch_index = 0; batch_index < cuts.size(); ++batch_index) {
      const size_t end = cuts[batch_index];
      const std::vector<uint32_t> labels_before = engine.ComponentLabels();
      const uint64_t fired_before = RulesFiredTotal();
      const uint64_t before = theory.comparison_count();
      Result<uint64_t> added = engine.AddBatch(Slice(raw, begin, end), theory);
      ASSERT_TRUE(added.ok());
      theory.FlushMetrics();
      const NaiveBatch naive =
          ScanBatchNaively(engine.records(), options,
                           static_cast<TupleId>(begin), naive_theory);
      if (batch_index < 2) {
        EXPECT_GT(naive.longest_run, 2 * kChunk);
        EXPECT_GE(naive.entering, IncrementalMergePurge::kPooledScanPositions);
      } else if (end - begin <= 20) {
        EXPECT_LT(naive.entering, IncrementalMergePurge::kPooledScanPositions);
      }
      uint64_t new_pairs = 0;
      for (const auto& [a, b] : naive.pairs.ToSortedVector()) {
        if (!expected.Contains(a, b)) ++new_pairs;
      }
      EXPECT_EQ(*added, new_pairs) << "batch [" << begin << ", " << end << ")";
      EXPECT_EQ(RulesFiredTotal() - fired_before, naive.matches)
          << "batch [" << begin << ", " << end << ")";
      const std::vector<uint32_t> labels_after = engine.ComponentLabels();
      std::vector<std::pair<uint32_t, uint32_t>> label_diff;
      for (size_t t = 0; t < labels_before.size(); ++t) {
        if (labels_after[t] != labels_before[t]) {
          label_diff.emplace_back(labels_after[t], labels_before[t]);
        }
      }
      std::sort(label_diff.begin(), label_diff.end());
      label_diff.erase(std::unique(label_diff.begin(), label_diff.end()),
                       label_diff.end());
      EXPECT_EQ(engine.LastBatchMerges(), label_diff)
          << "batch [" << begin << ", " << end << ")";
      expected.Merge(naive.pairs);
      ASSERT_EQ(theory.comparison_count() - before, naive.comparisons)
          << "batch [" << begin << ", " << end << ")";
      ASSERT_EQ(engine.pairs().ToSortedVector(), expected.ToSortedVector())
          << "batch [" << begin << ", " << end << ")";
      begin = end;
    }
  }
}

// A probe matches exactly the old side of the pairs that a singleton batch
// of it finds on a restored copy of the engine, and compares no more. A
// small window puts a probe's matches often at the window's far edge.
TEST(IncrementalOracleTest, ProbeMatchesOldSideOfSingletonBatch) {
  const Dataset raw = Generate(600, 11);
  const Dataset others = Generate(100, 12);
  for (size_t window : {3, 10}) {
    SCOPED_TRACE(window);
    MergePurgeOptions options = ThreeKeys();
    options.window = window;
    IncrementalMergePurge engine(options);
    EmployeeTheory theory;
    for (size_t begin = 0; begin < raw.size(); begin += 97) {
      ASSERT_TRUE(engine
                      .AddBatch(Slice(raw, begin,
                                      std::min(raw.size(), begin + 97)),
                                theory)
                      .ok());
    }
    // Probes: residents (which meet their own copy) and unseen records.
    std::vector<Record> probes;
    for (size_t t = 0; t < raw.size(); t += 13) {
      probes.push_back(raw.record(static_cast<TupleId>(t)));
    }
    for (size_t t = 0; t < others.size(); t += 3) {
      probes.push_back(others.record(static_cast<TupleId>(t)));
    }
    size_t matched = 0;
    const TupleId probe_tid = static_cast<TupleId>(engine.size());
    for (const Record& probe : probes) {
      uint64_t before = theory.comparison_count();
      Result<ProbeResult> probed = engine.MatchOnly(probe, theory);
      ASSERT_TRUE(probed.ok());
      const uint64_t probe_comparisons = theory.comparison_count() - before;

      IncrementalMergePurge copy(options);
      ASSERT_TRUE(copy.Restore(engine.records(), engine.pairs()).ok());
      Dataset singleton(raw.schema());
      singleton.Append(probe);
      before = theory.comparison_count();
      ASSERT_TRUE(copy.AddBatch(singleton, theory).ok());
      EXPECT_LE(probe_comparisons, theory.comparison_count() - before);
      std::vector<TupleId> old_side;
      for (TupleId t = 0; t < probe_tid; ++t) {
        if (copy.pairs().Contains(t, probe_tid)) old_side.push_back(t);
      }
      EXPECT_EQ(probed->matches, old_side);
      matched += old_side.size();
    }
    EXPECT_GT(matched, probes.size() / 2);
  }
}

}  // namespace
}  // namespace mergepurge
