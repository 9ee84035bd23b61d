#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "util/coding.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace mergepurge {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad window");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad window");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad window");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MovesValueOut) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status FailingStep() { return Status::IoError("disk"); }
Status UsesReturnMacro() {
  MERGEPURGE_RETURN_NOT_OK(FailingStep());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(UsesReturnMacro().code(), StatusCode::kIoError);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.NextUint64() != b.NextUint64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(19);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.NextBernoulli(0.25)) ++hits;
  }
  double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(23);
  std::vector<double> weights = {0.0, 3.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.NextWeighted(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 2);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(31);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextUint64(), child.NextUint64());
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLowerAscii("MiXeD 42"), "mixed 42");
  EXPECT_EQ(ToUpperAscii("MiXeD 42"), "MIXED 42");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimAscii("  a b  "), "a b");
  EXPECT_EQ(TrimAscii("\t\n"), "");
  EXPECT_EQ(TrimAscii("x"), "x");
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  auto parts = SplitView("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, IsAllDigits) {
  EXPECT_TRUE(IsAllDigits("0123456789"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_FALSE(IsAllDigits("12a"));
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Smith", "sMITH"));
  EXPECT_FALSE(EqualsIgnoreCase("Smith", "Smiths"));
}

TEST(StringUtilTest, PrefixClamps) {
  EXPECT_EQ(Prefix("abcdef", 3), "abc");
  EXPECT_EQ(Prefix("ab", 5), "ab");
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 1.005), "1.00");
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ParallelForTest, RangesCoverEveryIndexOnceInGrainSizedPieces) {
  constexpr size_t kN = 10 * kParallelGrain + 17;
  std::vector<std::atomic<int>> visits(kN);
  std::atomic<size_t> ranges{0};
  ParallelFor(kN, 4, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin % kParallelGrain, 0u);
    EXPECT_EQ(end, std::min(kN, begin + kParallelGrain));
    ranges.fetch_add(1);
    for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  EXPECT_EQ(ranges.load(), 11u);
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelForTest, RunsInlineForOneWorkerOrBelowTheGrain) {
  const std::thread::id caller = std::this_thread::get_id();
  for (auto [n, workers, grain] :
       {std::tuple<size_t, size_t, size_t>{kParallelGrain, 4, kParallelGrain},
        {5 * kParallelGrain, 1, kParallelGrain},
        {1, 4, 1}}) {
    size_t calls = 0;
    ParallelFor(
        n, workers,
        [&](size_t begin, size_t end) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          EXPECT_EQ(begin, 0u);
          EXPECT_EQ(end, n);
          ++calls;
        },
        grain);
    EXPECT_EQ(calls, 1u);
  }
  ParallelFor(0, 4, [](size_t, size_t) { FAIL() << "no range for n = 0"; });
}

TEST(ParallelForTest, GrainOneMakesEachIndexATask) {
  std::vector<int> seen(7, 0);
  ParallelFor(
      seen.size(), 3,
      [&](size_t begin, size_t end) {
        EXPECT_EQ(end, begin + 1);
        seen[begin] = 1;
      },
      /*grain=*/1);
  EXPECT_EQ(seen, std::vector<int>(7, 1));
}

TEST(ParallelForTest, RethrowsTheFirstExceptionInRangeOrder) {
  std::atomic<size_t> ran{0};
  try {
    ParallelFor(
        8, 4,
        [&](size_t begin, size_t) {
          ran.fetch_add(1);
          if (begin == 5 || begin == 2) {
            throw std::runtime_error("range " + std::to_string(begin));
          }
        },
        /*grain=*/1);
    FAIL() << "ParallelFor swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "range 2");
  }
  EXPECT_EQ(ran.load(), 8u);  // Every range ran before the rethrow.
}

TEST(CodingTest, StringListRoundTripsAndRejectsEveryTruncation) {
  const std::vector<std::string> fields = {"SMITH", "",
                                           std::string("A\0B", 3)};
  std::string data;
  PutStringList(&data, fields);
  EXPECT_EQ(data.size(), 4u + 3 * 4 + 5 + 0 + 3);
  size_t pos = 0;
  std::vector<std::string> decoded;
  ASSERT_TRUE(GetStringList(data, &pos, &decoded));
  EXPECT_EQ(decoded, fields);
  EXPECT_EQ(pos, data.size());
  for (size_t cut = 0; cut < data.size(); ++cut) {
    pos = 0;
    EXPECT_FALSE(GetStringList(std::string_view(data).substr(0, cut), &pos,
                               &decoded))
        << cut;
  }
}

}  // namespace
}  // namespace mergepurge
