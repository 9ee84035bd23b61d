// Micro-benchmarks (google-benchmark) for the primitives whose constants
// drive the §3.5 cost model: distance functions, the shared transposition
// predicate, nickname equivalence, phonetic codes, key construction, the
// window-scan comparison under the built-in theory, union-find closure,
// and the incremental engine's insert and probe.

#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/incremental.h"
#include "core/multipass.h"
#include "core/sorted_neighborhood.h"
#include "core/union_find.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"
#include "text/edit_distance.h"
#include "text/keyboard_distance.h"
#include "text/nicknames.h"
#include "text/normalize.h"
#include "text/phonetic.h"
#include "text/predicates.h"
#include "util/random.h"

namespace mergepurge {
namespace {

std::vector<std::string> RandomNames(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  names.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t len = 5 + rng.NextBounded(10);
    std::string s;
    for (size_t j = 0; j < len; ++j) {
      s += static_cast<char>('A' + rng.NextBounded(26));
    }
    names.push_back(std::move(s));
  }
  return names;
}

const GeneratedDatabase& SharedDatabase() {
  static const GeneratedDatabase* db = [] {
    GeneratorConfig config;
    config.num_records = 20000;
    config.duplicate_selection_rate = 0.5;
    config.seed = 42;
    auto generated = DatabaseGenerator(config).Generate();
    auto* out = new GeneratedDatabase(std::move(*generated));
    ConditionEmployeeDataset(&out->dataset);
    return out;
  }();
  return *db;
}

void BM_EditDistance(benchmark::State& state) {
  auto names = RandomNames(1024, 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EditDistance(names[i % 1024], names[(i + 1) % 1024]));
    ++i;
  }
}
BENCHMARK(BM_EditDistance);

void BM_DamerauDistance(benchmark::State& state) {
  auto names = RandomNames(1024, 2);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DamerauDistance(names[i % 1024], names[(i + 1) % 1024]));
    ++i;
  }
}
BENCHMARK(BM_DamerauDistance);

void BM_BoundedDamerau(benchmark::State& state) {
  auto names = RandomNames(1024, 3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoundedDamerauDistance(
        names[i % 1024], names[(i + 1) % 1024], state.range(0)));
    ++i;
  }
}
BENCHMARK(BM_BoundedDamerau)->Arg(1)->Arg(3);

// The SSN rule's shape: 9-digit strings within Damerau distance 1. Each odd
// entry is a one-digit typo of the entry before it, so half the compared
// pairs are near matches and half are unrelated.
void BM_WithinDistance1(benchmark::State& state) {
  Rng rng(12);
  std::vector<std::string> ssns(1024);
  for (size_t i = 0; i < ssns.size(); ++i) {
    if (i % 2 == 1) {
      ssns[i] = ssns[i - 1];
      const size_t digit = rng.NextBounded(9);
      ssns[i][digit] = static_cast<char>('0' + rng.NextBounded(10));
      continue;
    }
    for (int j = 0; j < 9; ++j) {
      ssns[i] += static_cast<char>('0' + rng.NextBounded(10));
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BoundedDamerauDistance(ssns[i % 1024], ssns[(i + 1) % 1024], 1));
    ++i;
  }
}
BENCHMARK(BM_WithinDistance1);

// Arg 0: unrelated name pairs (false); arg 1: each name against itself
// with two adjacent letters swapped (true unless the letters are equal).
void BM_AdjacentTransposition(benchmark::State& state) {
  auto names = RandomNames(1024, 11);
  std::vector<std::string> others(1024);
  for (size_t i = 0; i < 1024; ++i) {
    others[i] = names[(i + 1) % 1024];
    if (state.range(0) == 1) {
      others[i] = names[i];
      std::swap(others[i][1], others[i][2]);
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        IsAdjacentTransposition(names[i % 1024], others[i % 1024]));
    ++i;
  }
}
BENCHMARK(BM_AdjacentTransposition)->Arg(0)->Arg(1);

void BM_KeyboardDistance(benchmark::State& state) {
  auto names = RandomNames(1024, 4);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        KeyboardDistance(names[i % 1024], names[(i + 1) % 1024]));
    ++i;
  }
}
BENCHMARK(BM_KeyboardDistance);

void BM_Soundex(benchmark::State& state) {
  auto names = RandomNames(1024, 5);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Soundex(names[i % 1024]));
    ++i;
  }
}
BENCHMARK(BM_Soundex);

void BM_Nysiis(benchmark::State& state) {
  auto names = RandomNames(1024, 6);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Nysiis(names[i % 1024]));
    ++i;
  }
}
BENCHMARK(BM_Nysiis);

void BM_BuildKey(benchmark::State& state) {
  const auto& db = SharedDatabase();
  KeyBuilder builder(LastNameKey());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.BuildKey(
        db.dataset.record(static_cast<TupleId>(i % db.dataset.size()))));
    ++i;
  }
}
BENCHMARK(BM_BuildKey);

// The merge-phase comparison: dominant constant of the cost model (alpha).
// The built-in theory is the compiled rule text, so this is also the cost
// of a comparison under any rules file of the same shape.
void BM_TheoryComparison(benchmark::State& state) {
  const auto& db = SharedDatabase();
  EmployeeTheory theory;
  size_t i = 0;
  const size_t n = db.dataset.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        theory.Matches(db.dataset.record(static_cast<TupleId>(i % n)),
                       db.dataset.record(static_cast<TupleId>((i + 1) % n))));
    ++i;
  }
}
BENCHMARK(BM_TheoryComparison);

// One comparison of the window scan: rows of a block loaded in the
// last-name key's sort order, each compared with the 9 rows before it
// (w = 10). The block is loaded once, so after the first pass every
// row's per-record values are computed; BM_TheoryComparison pays a
// two-row load per comparison instead.
void BM_TheoryComparisonRows(benchmark::State& state) {
  const auto& db = SharedDatabase();
  constexpr size_t kWindow = 10;
  const std::vector<TupleId> order =
      SortedNeighborhood::SortByKey(db.dataset, LastNameKey());
  std::vector<const Record*> rows;
  for (TupleId t : order) rows.push_back(&db.dataset.record(t));
  EmployeeTheory theory;
  theory.LoadRows(rows.data(), rows.size());
  size_t i = kWindow - 1;
  size_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(theory.MatchesRows(j, i));
    if (++j == i) {
      i = i + 1 < rows.size() ? i + 1 : kWindow - 1;
      j = i - (kWindow - 1);
    }
  }
}
BENCHMARK(BM_TheoryComparisonRows);

void BM_SortByKey(benchmark::State& state) {
  const auto& db = SharedDatabase();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SortedNeighborhood::SortByKey(db.dataset, LastNameKey()));
  }
}
BENCHMARK(BM_SortByKey)->Unit(benchmark::kMillisecond);

void BM_FullSnmPass(benchmark::State& state) {
  const auto& db = SharedDatabase();
  EmployeeTheory theory;
  SortedNeighborhood snm(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = snm.Run(db.dataset, LastNameKey(), theory);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullSnmPass)->Arg(2)->Arg(10)->Arg(30)
    ->Unit(benchmark::kMillisecond);

MergePurgeOptions ServiceOptions() {
  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  options.window = 10;
  options.condition_records = false;  // SharedDatabase is conditioned.
  return options;
}

Dataset Slice(const Dataset& all, size_t begin, size_t end) {
  Dataset batch(all.schema());
  for (size_t t = begin; t < end; ++t) {
    batch.Append(all.record(static_cast<TupleId>(t)));
  }
  return batch;
}

// The service's preload: the shared database committed to an empty
// incremental engine in 2,000-record batches (three keys, w = 10).
void BM_IncrementalAddBatch(benchmark::State& state) {
  const Dataset& all = SharedDatabase().dataset;
  constexpr size_t kBatch = 2000;
  std::vector<Dataset> batches;
  for (size_t begin = 0; begin < all.size(); begin += kBatch) {
    batches.push_back(Slice(all, begin, std::min(all.size(), begin + kBatch)));
  }
  EmployeeTheory theory;
  for (auto _ : state) {
    IncrementalMergePurge engine(ServiceOptions());
    for (const Dataset& batch : batches) {
      benchmark::DoNotOptimize(engine.AddBatch(batch, theory));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(all.size()));
}
BENCHMARK(BM_IncrementalAddBatch)->Unit(benchmark::kMillisecond);

// One read-only probe (three keys, w = 10) against the preloaded shared
// database; the probes cycle through its records.
void BM_MatchOnly(benchmark::State& state) {
  const Dataset& all = SharedDatabase().dataset;
  IncrementalMergePurge engine(ServiceOptions());
  EmployeeTheory theory;
  if (!engine.AddBatch(all, theory).ok()) {
    state.SkipWithError("preload failed");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.MatchOnly(
        all.record(static_cast<TupleId>(i++ % all.size())), theory));
  }
}
BENCHMARK(BM_MatchOnly)->Unit(benchmark::kMicrosecond);

void BM_TransitiveClosure(benchmark::State& state) {
  Rng rng(9);
  PairSet pairs;
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) {
    pairs.Add(static_cast<TupleId>(rng.NextBounded(n)),
              static_cast<TupleId>(rng.NextBounded(n)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(TransitiveClosure(pairs, n));
  }
}
BENCHMARK(BM_TransitiveClosure)->Unit(benchmark::kMillisecond);

void BM_UnionFind(benchmark::State& state) {
  Rng rng(10);
  const size_t n = 1 << 16;
  std::vector<std::pair<uint32_t, uint32_t>> ops;
  for (size_t i = 0; i < n; ++i) {
    ops.emplace_back(static_cast<uint32_t>(rng.NextBounded(n)),
                     static_cast<uint32_t>(rng.NextBounded(n)));
  }
  for (auto _ : state) {
    UnionFind uf(n);
    for (const auto& [a, b] : ops) uf.Union(a, b);
    benchmark::DoNotOptimize(uf.NumSets());
  }
}
BENCHMARK(BM_UnionFind)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mergepurge

BENCHMARK_MAIN();
