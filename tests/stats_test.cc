#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "stats/contingency.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/distance.h"
#include "stats/histogram.h"
#include "stats/hypothesis.h"
#include "stats/special.h"
#include "tabular/table.h"

namespace greater {
namespace {

// ---------- special functions ----------

TEST(SpecialTest, LogFactorial) {
  EXPECT_DOUBLE_EQ(LogFactorial(0), 0.0);
  EXPECT_DOUBLE_EQ(LogFactorial(1), 0.0);
  EXPECT_NEAR(LogFactorial(5), std::log(120.0), 1e-12);
  EXPECT_NEAR(LogFactorial(20), std::log(2432902008176640000.0), 1e-9);
}

TEST(SpecialTest, RegularizedGammaComplementarity) {
  for (double a : {0.5, 1.0, 3.0, 10.0}) {
    for (double x : {0.1, 1.0, 5.0, 20.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0,
                  1e-10);
    }
  }
}

TEST(SpecialTest, ChiSquareSfKnownValues) {
  // chi2 sf at x = dof for dof=2 is exp(-1).
  EXPECT_NEAR(ChiSquareSf(2.0, 2.0), std::exp(-1.0), 1e-10);
  // 95th percentile of chi2(1) is ~3.841.
  EXPECT_NEAR(ChiSquareSf(3.841, 1.0), 0.05, 1e-3);
  // 95th percentile of chi2(5) is ~11.07.
  EXPECT_NEAR(ChiSquareSf(11.07, 5.0), 0.05, 1e-3);
  EXPECT_DOUBLE_EQ(ChiSquareSf(0.0, 3.0), 1.0);
}

TEST(SpecialTest, KolmogorovQKnownValues) {
  EXPECT_DOUBLE_EQ(KolmogorovQ(0.0), 1.0);
  // Q(1.36) ~ 0.05 (the classic critical value).
  EXPECT_NEAR(KolmogorovQ(1.36), 0.05, 2e-3);
  EXPECT_LT(KolmogorovQ(3.0), 1e-6);
  EXPECT_GE(KolmogorovQ(0.2), 0.999);
}

// ---------- descriptive ----------

TEST(DescriptiveTest, Basics) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(Variance(xs), 2.5);
  EXPECT_DOUBLE_EQ(StdDev(xs), std::sqrt(2.5));
  EXPECT_DOUBLE_EQ(Median(xs), 3.0);
  EXPECT_DOUBLE_EQ(Min(xs), 1.0);
  EXPECT_DOUBLE_EQ(Max(xs), 5.0);
}

TEST(DescriptiveTest, MedianEvenCount) {
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4}), 2.5);
}

TEST(DescriptiveTest, QuantileInterpolates) {
  std::vector<double> xs = {0, 10};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 10.0);
}

TEST(DescriptiveTest, EmptyInputsAreZero) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

// ---------- contingency + correlation ----------

TEST(ContingencyTest, FromColumnsBuildsCounts) {
  std::vector<Value> a = {Value(1), Value(1), Value(2), Value(2), Value(2)};
  std::vector<Value> b = {Value("x"), Value("y"), Value("x"), Value("x"),
                          Value("x")};
  auto ct = ContingencyTable::FromColumns(a, b).ValueOrDie();
  EXPECT_EQ(ct.num_rows(), 2u);
  EXPECT_EQ(ct.num_cols(), 2u);
  EXPECT_DOUBLE_EQ(ct.total(), 5.0);
  EXPECT_DOUBLE_EQ(ct.RowTotal(0), 2.0);
  EXPECT_DOUBLE_EQ(ct.ColTotal(0), 4.0);
}

TEST(ContingencyTest, NullsSkippedPairwise) {
  std::vector<Value> a = {Value(1), Value::Null(), Value(2)};
  std::vector<Value> b = {Value(1), Value(1), Value(2)};
  auto ct = ContingencyTable::FromColumns(a, b).ValueOrDie();
  EXPECT_DOUBLE_EQ(ct.total(), 2.0);
}

TEST(ContingencyTest, LengthMismatchFails) {
  EXPECT_FALSE(
      ContingencyTable::FromColumns({Value(1)}, {Value(1), Value(2)}).ok());
}

TEST(ContingencyTest, FromCountsValidates) {
  EXPECT_FALSE(ContingencyTable::FromCounts({}).ok());
  EXPECT_FALSE(ContingencyTable::FromCounts({{1.0}, {1.0, 2.0}}).ok());
  EXPECT_FALSE(ContingencyTable::FromCounts({{-1.0}}).ok());
  EXPECT_FALSE(ContingencyTable::FromCounts({{0.0, 0.0}}).ok());
}

TEST(CorrelationTest, PearsonPerfectAndZero) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> neg = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, neg), -1.0, 1e-12);
  std::vector<double> constant = {5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, constant), 0.0);
}

TEST(CorrelationTest, CramersVPerfectAssociation) {
  auto ct = ContingencyTable::FromCounts({{50, 0}, {0, 50}}).ValueOrDie();
  EXPECT_NEAR(CramersV(ct), 1.0, 1e-12);
}

TEST(CorrelationTest, CramersVIndependence) {
  auto ct = ContingencyTable::FromCounts({{25, 25}, {25, 25}}).ValueOrDie();
  EXPECT_NEAR(CramersV(ct), 0.0, 1e-12);
  EXPECT_NEAR(CramersVBiasCorrected(ct), 0.0, 1e-12);
}

TEST(CorrelationTest, BiasCorrectionShrinksSmallSampleEstimates) {
  Rng rng(5);
  std::vector<Value> a, b;
  for (int i = 0; i < 60; ++i) {
    a.emplace_back(rng.UniformInt(1, 6));
    b.emplace_back(rng.UniformInt(1, 6));
  }
  auto ct = ContingencyTable::FromColumns(a, b).ValueOrDie();
  EXPECT_LT(CramersVBiasCorrected(ct), CramersV(ct) + 1e-12);
}

TEST(CorrelationTest, CorrelationRatioSeparatedGroups) {
  std::vector<Value> groups = {Value("a"), Value("a"), Value("b"), Value("b")};
  std::vector<double> outcomes = {1.0, 1.0, 9.0, 9.0};
  EXPECT_NEAR(CorrelationRatio(groups, outcomes), 1.0, 1e-12);
}

TEST(CorrelationTest, CorrelationRatioNoEffect) {
  std::vector<Value> groups = {Value("a"), Value("a"), Value("b"), Value("b")};
  std::vector<double> outcomes = {1.0, 9.0, 1.0, 9.0};
  EXPECT_NEAR(CorrelationRatio(groups, outcomes), 0.0, 1e-12);
}

TEST(CorrelationTest, AssociationMatrixShape) {
  Schema schema({Field("a", ValueType::kInt, SemanticType::kCategorical),
                 Field("b", ValueType::kInt, SemanticType::kCategorical),
                 Field("c", ValueType::kDouble, SemanticType::kContinuous)});
  Table t(schema);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    int64_t a = rng.UniformInt(1, 4);
    ASSERT_TRUE(
        t.AppendRow({Value(a), Value(a), Value(rng.Normal())}).ok());
  }
  auto m = ComputeAssociationMatrix(t).ValueOrDie();
  EXPECT_EQ(m.values.rows(), 3u);
  EXPECT_DOUBLE_EQ(m.values(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.values(0, 1), m.values(1, 0));
  EXPECT_GT(m.values(0, 1), 0.95);       // a == b
  EXPECT_LT(m.values(0, 2), 0.3);        // c independent
  EXPECT_EQ(OffDiagonal(m).size(), 3u);
}

// ---------- hypothesis tests ----------

TEST(HypothesisTest, ChiSquareIndependentDataHighP) {
  auto ct = ContingencyTable::FromCounts({{50, 50}, {50, 50}}).ValueOrDie();
  auto r = ChiSquareIndependenceTest(ct).ValueOrDie();
  EXPECT_NEAR(r.p_value, 1.0, 1e-9);
}

TEST(HypothesisTest, ChiSquareDependentDataLowP) {
  auto ct = ContingencyTable::FromCounts({{90, 10}, {10, 90}}).ValueOrDie();
  auto r = ChiSquareIndependenceTest(ct).ValueOrDie();
  EXPECT_LT(r.p_value, 1e-6);
  EXPECT_GT(r.statistic, 100.0);
}

TEST(HypothesisTest, ChiSquareNeeds2x2) {
  auto ct = ContingencyTable::FromCounts({{1.0, 2.0}}).ValueOrDie();
  EXPECT_FALSE(ChiSquareIndependenceTest(ct).ok());
}

TEST(HypothesisTest, FisherExactMatchesKnownValue) {
  // Classic tea-tasting table: [[3,1],[1,3]] two-sided p ~ 0.4857.
  auto r = FisherExactTest2x2(3, 1, 1, 3).ValueOrDie();
  EXPECT_NEAR(r.p_value, 0.4857, 1e-3);
  EXPECT_NEAR(r.statistic, 9.0, 1e-12);  // odds ratio
}

TEST(HypothesisTest, FisherExactExtremeTable) {
  auto r = FisherExactTest2x2(10, 0, 0, 10).ValueOrDie();
  EXPECT_LT(r.p_value, 1e-4);
}

TEST(HypothesisTest, FisherRejectsNonIntegerCounts) {
  EXPECT_FALSE(FisherExactTest2x2(1.5, 2, 3, 4).ok());
  EXPECT_FALSE(FisherExactTest2x2(-1, 2, 3, 4).ok());
}

TEST(HypothesisTest, KsIdenticalSamplesHighP) {
  Rng rng(9);
  std::vector<double> a;
  for (int i = 0; i < 300; ++i) a.push_back(rng.Normal());
  auto r = KolmogorovSmirnovTest(a, a).ValueOrDie();
  EXPECT_DOUBLE_EQ(r.statistic, 0.0);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(HypothesisTest, KsSameDistributionUsuallyHighP) {
  Rng rng(10);
  std::vector<double> a, b;
  for (int i = 0; i < 500; ++i) a.push_back(rng.Normal());
  for (int i = 0; i < 500; ++i) b.push_back(rng.Normal());
  auto r = KolmogorovSmirnovTest(a, b).ValueOrDie();
  EXPECT_GT(r.p_value, 0.01);
}

TEST(HypothesisTest, KsShiftedDistributionLowP) {
  Rng rng(11);
  std::vector<double> a, b;
  for (int i = 0; i < 500; ++i) a.push_back(rng.Normal());
  for (int i = 0; i < 500; ++i) b.push_back(rng.Normal() + 1.0);
  auto r = KolmogorovSmirnovTest(a, b).ValueOrDie();
  EXPECT_LT(r.p_value, 1e-6);
  EXPECT_GT(r.statistic, 0.3);
}

TEST(HypothesisTest, KsEmptySampleFails) {
  EXPECT_FALSE(KolmogorovSmirnovTest({}, {1.0}).ok());
}

// ---------- distances ----------

TEST(DistanceTest, Wasserstein1PointMasses) {
  // Two unit point masses distance d apart -> W1 = d.
  auto w = Wasserstein1({0.0, 0.0}, {3.0, 3.0}).ValueOrDie();
  EXPECT_NEAR(w, 3.0, 1e-12);
}

TEST(DistanceTest, Wasserstein1Identical) {
  auto w = Wasserstein1({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}).ValueOrDie();
  EXPECT_NEAR(w, 0.0, 1e-12);
}

TEST(DistanceTest, Wasserstein1UnequalSizes) {
  // a: uniform on {0, 1}; b: point at 0 -> W1 = 0.5.
  auto w = Wasserstein1({0.0, 1.0}, {0.0}).ValueOrDie();
  EXPECT_NEAR(w, 0.5, 1e-12);
}

TEST(DistanceTest, Wasserstein1DiscreteNumericSupport) {
  DiscreteDistribution p = {{Value(0), 1.0}};
  DiscreteDistribution q = {{Value(4), 1.0}};
  EXPECT_NEAR(Wasserstein1Discrete(p, q).ValueOrDie(), 4.0, 1e-12);
}

TEST(DistanceTest, Wasserstein1DiscreteCategoricalRankGeometry) {
  DiscreteDistribution p = {{Value("a"), 1.0}};
  DiscreteDistribution q = {{Value("c"), 1.0}};
  // merged support {a, c} at ranks 0, 1 -> distance 1.
  EXPECT_NEAR(Wasserstein1Discrete(p, q).ValueOrDie(), 1.0, 1e-12);
}

TEST(DistanceTest, TotalVariation) {
  DiscreteDistribution p = {{Value(1), 0.5}, {Value(2), 0.5}};
  DiscreteDistribution q = {{Value(1), 0.5}, {Value(2), 0.5}};
  EXPECT_DOUBLE_EQ(TotalVariation(p, q), 0.0);
  DiscreteDistribution r = {{Value(3), 1.0}};
  EXPECT_DOUBLE_EQ(TotalVariation(p, r), 1.0);
}

TEST(DistanceTest, JensenShannonBounds) {
  DiscreteDistribution p = {{Value(1), 1.0}};
  DiscreteDistribution q = {{Value(2), 1.0}};
  EXPECT_NEAR(JensenShannon(p, q), 1.0, 1e-12);  // disjoint -> 1 (base 2)
  EXPECT_NEAR(JensenShannon(p, p), 0.0, 1e-12);
}

TEST(DistanceTest, NormalizeCounts) {
  std::map<Value, size_t> counts = {{Value(1), 3}, {Value(2), 1}};
  auto d = NormalizeCounts(counts).ValueOrDie();
  EXPECT_DOUBLE_EQ(d[Value(1)], 0.75);
  EXPECT_DOUBLE_EQ(d[Value(2)], 0.25);
  EXPECT_FALSE(NormalizeCounts({}).ok());
}

// ---------- histogram ----------

TEST(HistogramTest, BinningAndClamping) {
  auto h = Histogram::Make(0.0, 1.0, 4).ValueOrDie();
  h.AddAll({0.1, 0.3, 0.6, 0.9, -5.0, 5.0});
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.count(0), 2u);  // 0.1 and clamped -5
  EXPECT_EQ(h.count(3), 2u);  // 0.9 and clamped 5
  EXPECT_NEAR(h.BinCenter(0), 0.125, 1e-12);
}

TEST(HistogramTest, DensityIntegratesToOne) {
  auto h = Histogram::Make(0.0, 1.0, 10).ValueOrDie();
  Rng rng(21);
  for (int i = 0; i < 1000; ++i) h.Add(rng.Uniform());
  double integral = 0.0;
  for (double d : h.Density()) integral += d * 0.1;
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(HistogramTest, MassAbove) {
  auto h = Histogram::Make(0.0, 1.0, 10).ValueOrDie();
  h.AddAll({0.05, 0.95, 0.85});
  EXPECT_NEAR(h.MassAbove(0.5), 2.0 / 3.0, 1e-12);
}

TEST(HistogramTest, InvalidRangesFail) {
  EXPECT_FALSE(Histogram::Make(1.0, 0.0, 4).ok());
  EXPECT_FALSE(Histogram::Make(0.0, 1.0, 0).ok());
}

}  // namespace
}  // namespace greater
