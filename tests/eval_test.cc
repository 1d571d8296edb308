#include <gtest/gtest.h>

#include "common/rng.h"
#include "eval/ablation.h"
#include "eval/fidelity.h"

namespace greater {
namespace {

Table RandomTable(Rng* rng, size_t rows, bool correlated) {
  Schema schema({Field("x", ValueType::kInt),
                 Field("y", ValueType::kInt),
                 Field("z", ValueType::kInt)});
  Table t(schema);
  for (size_t r = 0; r < rows; ++r) {
    int64_t x = rng->UniformInt(1, 4);
    int64_t y = correlated ? (rng->Bernoulli(0.8) ? x : rng->UniformInt(1, 4))
                           : rng->UniformInt(1, 4);
    int64_t z = rng->UniformInt(1, 3);
    EXPECT_TRUE(t.AppendRow({Value(x), Value(y), Value(z)}).ok());
  }
  return t;
}

TEST(FidelityTest, IdenticalTablesScoreHigh) {
  Rng rng(1);
  Table t = RandomTable(&rng, 400, true);
  auto report = EvaluateFidelity(t, t).ValueOrDie();
  EXPECT_EQ(report.pairs.size(), 6u);  // 3 columns -> 6 ordered pairs
  for (const auto& pair : report.pairs) {
    EXPECT_GT(pair.ks_p_value, 0.95);
    EXPECT_LT(pair.w_distance, 0.01);
  }
  EXPECT_GT(report.MeanPValue(), 0.95);
  EXPECT_GT(report.FractionAbove(0.9), 0.99);
}

TEST(FidelityTest, SameDistributionScoresWell) {
  Rng rng(2);
  Table a = RandomTable(&rng, 500, true);
  Table b = RandomTable(&rng, 500, true);
  auto report = EvaluateFidelity(a, b).ValueOrDie();
  EXPECT_GT(report.MeanPValue(), 0.2);
  EXPECT_LT(report.MeanWDistance(), 0.2);
}

TEST(FidelityTest, BrokenDependenceScoresWorse) {
  Rng rng(3);
  Table original = RandomTable(&rng, 500, true);
  Table broken = RandomTable(&rng, 500, false);  // x-y dependence destroyed
  Table matched = RandomTable(&rng, 500, true);
  auto bad = EvaluateFidelity(original, broken).ValueOrDie();
  auto good = EvaluateFidelity(original, matched).ValueOrDie();
  EXPECT_LT(bad.MeanPValue(), good.MeanPValue());
  EXPECT_GT(bad.MeanWDistance(), good.MeanWDistance());
}

TEST(FidelityTest, MissingGroupsPenalized) {
  Rng rng(4);
  Table original = RandomTable(&rng, 300, true);
  // Synthetic covering only x=1.
  const Value one(1);
  Table synthetic =
      original.FilterRows([&](size_t r) { return original.at(r, 0) == one; });
  FidelityOptions options;
  options.penalize_missing_groups = true;
  auto penalized =
      EvaluatePair(original, synthetic, "x", "y", options).ValueOrDie();
  options.penalize_missing_groups = false;
  auto lenient =
      EvaluatePair(original, synthetic, "x", "y", options).ValueOrDie();
  EXPECT_LT(penalized.ks_p_value, lenient.ks_p_value);
  EXPECT_GT(penalized.w_distance, lenient.w_distance);
}

TEST(FidelityTest, MinGroupSizeSkipsSmallGroups) {
  Rng rng(5);
  Table original = RandomTable(&rng, 100, true);
  FidelityOptions options;
  options.min_group_size = 1000;  // nothing qualifies
  auto pair = EvaluatePair(original, original, "x", "y", options).ValueOrDie();
  EXPECT_EQ(pair.groups_evaluated, 0u);
  EXPECT_DOUBLE_EQ(pair.ks_p_value, 0.0);  // worst-case defaults
  EXPECT_DOUBLE_EQ(pair.w_distance, 1.0);
}

TEST(FidelityTest, SchemaMismatchFails) {
  Rng rng(6);
  Table a = RandomTable(&rng, 50, true);
  Table b = a.DropColumns({"z"}).ValueOrDie();
  EXPECT_FALSE(EvaluateFidelity(a, b).ok());
}

TEST(FidelityTest, SingleColumnFails) {
  Rng rng(7);
  Table a = RandomTable(&rng, 50, true).Select({"x"}).ValueOrDie();
  EXPECT_FALSE(EvaluateFidelity(a, a).ok());
}

TEST(FidelityTest, WDistanceWithinUnitInterval) {
  Rng rng(8);
  Table a = RandomTable(&rng, 300, true);
  Table b = RandomTable(&rng, 300, false);
  auto report = EvaluateFidelity(a, b).ValueOrDie();
  for (const auto& pair : report.pairs) {
    EXPECT_GE(pair.w_distance, 0.0);
    EXPECT_LE(pair.w_distance, 1.0);
    EXPECT_GE(pair.ks_p_value, 0.0);
    EXPECT_LE(pair.ks_p_value, 1.0);
  }
}

// ---------- ablation bookkeeping ----------

FidelityReport ReportWith(std::vector<double> p_values) {
  FidelityReport report;
  for (size_t i = 0; i < p_values.size(); ++i) {
    PairFidelity pair;
    pair.conditioning_column = "c";
    pair.conditioning_column += std::to_string(i);
    pair.target_column = "t";
    pair.ks_p_value = p_values[i];
    report.pairs.push_back(pair);
  }
  return report;
}

TEST(AblationTest, CompareReportsCounts) {
  FidelityReport benchmark = ReportWith({0.5, 0.5, 0.5, 0.5});
  FidelityReport candidate = ReportWith({0.9, 0.5, 0.1, 0.52});
  StepwiseCounts counts = CompareReports(benchmark, candidate, 0.05);
  EXPECT_EQ(counts.improved, 1u);
  EXPECT_EQ(counts.worsened, 1u);
  EXPECT_EQ(counts.no_change, 2u);
  EXPECT_EQ(counts.Net(), 0);
}

TEST(AblationTest, UnmatchedPairsIgnored) {
  FidelityReport benchmark = ReportWith({0.5});
  FidelityReport candidate = ReportWith({0.9, 0.9});
  StepwiseCounts counts = CompareReports(benchmark, candidate, 0.05);
  EXPECT_EQ(counts.improved + counts.no_change + counts.worsened, 1u);
}

TEST(AblationTest, AggregateTrialsMinMeanMax) {
  std::vector<StepwiseCounts> trials = {
      {10, 80, 5}, {20, 70, 15}, {30, 60, 25}};
  AblationRow row = AggregateTrials("setup", trials);
  EXPECT_DOUBLE_EQ(row.improved.min, 10.0);
  EXPECT_DOUBLE_EQ(row.improved.mean, 20.0);
  EXPECT_DOUBLE_EQ(row.improved.max, 30.0);
  EXPECT_DOUBLE_EQ(row.net.min, 5.0);
  EXPECT_DOUBLE_EQ(row.net.mean, 5.0);
}

TEST(AblationTest, RenderUsesParenthesesForNegatives) {
  std::vector<StepwiseCounts> trials = {{3, 400, 16}};
  AblationRow row = AggregateTrials("Direct Flattening Baseline", trials);
  std::string table = RenderAblationTable({row});
  EXPECT_NE(table.find("Direct Flattening Baseline"), std::string::npos);
  EXPECT_NE(table.find("(13)"), std::string::npos);  // net = 3 - 16
}

TEST(AblationTest, SummarizeEmptyIsZero) {
  MinMeanMax m = Summarize({});
  EXPECT_DOUBLE_EQ(m.min, 0.0);
  EXPECT_DOUBLE_EQ(m.mean, 0.0);
  EXPECT_DOUBLE_EQ(m.max, 0.0);
}

}  // namespace
}  // namespace greater
