#include <gtest/gtest.h>

#include "core/multipass.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "gen/generator.h"

namespace mergepurge {
namespace {

// Hand-built ground truth: origins {0,0,1,1,1,2}.
GroundTruth MakeTruth() {
  return GroundTruth({0, 0, 1, 1, 1, 2});
}

TEST(MetricsTest, TruePairArithmetic) {
  GroundTruth truth = MakeTruth();
  // C(2,2)=1 + C(3,2)=3 + C(1,2)=0 -> 4 true pairs, 3 duplicate tuples.
  EXPECT_EQ(truth.NumTruePairs(), 4u);
  EXPECT_EQ(truth.NumDuplicateTuples(), 3u);
}

TEST(MetricsTest, PerfectComponentsGivePerfectScores) {
  GroundTruth truth = MakeTruth();
  std::vector<uint32_t> components = {10, 10, 20, 20, 20, 30};
  AccuracyReport report = EvaluateComponents(components, truth);
  EXPECT_EQ(report.true_pairs, 4u);
  EXPECT_EQ(report.found_pairs, 4u);
  EXPECT_EQ(report.true_positives, 4u);
  EXPECT_EQ(report.false_positives, 0u);
  EXPECT_DOUBLE_EQ(report.recall_percent, 100.0);
  EXPECT_DOUBLE_EQ(report.false_positive_percent, 0.0);
  EXPECT_DOUBLE_EQ(report.precision_percent, 100.0);
}

TEST(MetricsTest, AllSingletonsFindNothing) {
  GroundTruth truth = MakeTruth();
  std::vector<uint32_t> components = {0, 1, 2, 3, 4, 5};
  AccuracyReport report = EvaluateComponents(components, truth);
  EXPECT_EQ(report.found_pairs, 0u);
  EXPECT_DOUBLE_EQ(report.recall_percent, 0.0);
  EXPECT_DOUBLE_EQ(report.false_positive_percent, 0.0);
}

TEST(MetricsTest, OverMergingCountsFalsePositives) {
  GroundTruth truth = MakeTruth();
  // Everything in one component: found = C(6,2) = 15, TP = 4, FP = 11.
  std::vector<uint32_t> components(6, 1);
  AccuracyReport report = EvaluateComponents(components, truth);
  EXPECT_EQ(report.found_pairs, 15u);
  EXPECT_EQ(report.true_positives, 4u);
  EXPECT_EQ(report.false_positives, 11u);
  EXPECT_DOUBLE_EQ(report.recall_percent, 100.0);
  EXPECT_DOUBLE_EQ(report.false_positive_percent, 100.0 * 11.0 / 4.0);
}

TEST(MetricsTest, PartialDetection) {
  GroundTruth truth = MakeTruth();
  // Only the pair (2,3) of the size-3 cluster found: TP=1 of 4.
  std::vector<uint32_t> components = {0, 1, 7, 7, 4, 5};
  AccuracyReport report = EvaluateComponents(components, truth);
  EXPECT_EQ(report.true_positives, 1u);
  EXPECT_DOUBLE_EQ(report.recall_percent, 25.0);
}

TEST(MetricsTest, EvaluatePairSetClosesFirst) {
  GroundTruth truth = MakeTruth();
  // Closure implies (2,4): full size-3 cluster found.
  const PairSet pairs(std::vector<uint64_t>{PackMatch(2, 3), PackMatch(3, 4)});
  AccuracyReport report = EvaluatePairSet(pairs, 6, truth);
  EXPECT_EQ(report.true_positives, 3u);
  EXPECT_EQ(report.false_positives, 0u);
}

TEST(MetricsTest, EmptyTruthGivesZeroRates) {
  GroundTruth truth({0, 1, 2});
  std::vector<uint32_t> components = {9, 9, 9};
  AccuracyReport report = EvaluateComponents(components, truth);
  EXPECT_EQ(report.true_pairs, 0u);
  EXPECT_DOUBLE_EQ(report.recall_percent, 0.0);
  EXPECT_EQ(report.false_positives, 3u);
}

// --- Table printer. ---

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"w", "recall"});
  table.AddRow({"2", "55.1"});
  table.AddRow({"10", "70.9"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("w   recall"), std::string::npos);
  EXPECT_NE(out.find("--  ------"), std::string::npos);
  EXPECT_NE(out.find("10  70.9"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"1"});
  EXPECT_NE(table.ToString().find("1"), std::string::npos);
}

TEST(FormatTest, Helpers) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatPercent(12.345), "12.35%");
  EXPECT_EQ(FormatCount(42), "42");
}

// --- ArgParser. ---

TEST(ArgParserTest, ParsesFlagForms) {
  const char* argv[] = {"prog", "--scale=0.5", "--verbose",
                        "--name=fig2", "--n=100"};
  ArgParser args(5, const_cast<char**>(argv));
  ASSERT_TRUE(args.status().ok());
  EXPECT_DOUBLE_EQ(args.GetDouble("scale", 1.0), 0.5);
  EXPECT_TRUE(args.GetBool("verbose", false));
  EXPECT_EQ(args.GetString("name", ""), "fig2");
  EXPECT_EQ(args.GetInt("n", 0), 100);
  EXPECT_EQ(args.GetInt("missing", 7), 7);
  EXPECT_FALSE(args.Has("missing"));
}

TEST(ArgParserTest, RejectsPositional) {
  const char* argv[] = {"prog", "oops"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_FALSE(args.status().ok());
}

TEST(PaperConfigTest, ScalesAndClamps) {
  GeneratorConfig config = PaperGeneratorConfig(1000000, 0.5, 5, 0.01, 1);
  EXPECT_EQ(config.num_records, 10000u);
  GeneratorConfig tiny = PaperGeneratorConfig(1000, 0.5, 5, 0.0001, 1);
  EXPECT_EQ(tiny.num_records, 100u);  // Floor at 100.
}

}  // namespace
}  // namespace mergepurge
