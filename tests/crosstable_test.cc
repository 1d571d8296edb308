#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "crosstable/contextual.h"
#include "crosstable/flatten.h"
#include "crosstable/independence.h"
#include "crosstable/reduce.h"

namespace greater {
namespace {

// The visit-logbook example of the paper's Fig. 11/12: gender and birth
// year are contextual; food varies per visit. `last_gender` overrides
// the gender of Yin's last visit (a measurement error when not 3).
Table VisitLog(int last_gender = 3) {
  Schema schema({Field("user", ValueType::kString),
                 Field("gender", ValueType::kInt),
                 Field("birth", ValueType::kInt),
                 Field("food", ValueType::kString)});
  Table t(schema);
  EXPECT_TRUE(t.AppendRow({Value("Grace"), Value(2), Value(1990),
                           Value("Rice")}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Grace"), Value(2), Value(1990),
                           Value("Steak")}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Yin"), Value(3), Value(1985),
                           Value("Spaghetti")}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Yin"), Value(3), Value(1985),
                           Value("Spaghetti")}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Yin"), Value(last_gender), Value(1985),
                           Value("Rice")}).ok());
  return t;
}

// ---------- contextual variables ----------

TEST(ContextualTest, DetectsConstantPerSubjectColumns) {
  auto ctx = FindContextualColumns(VisitLog(), "user").ValueOrDie();
  ASSERT_EQ(ctx.size(), 2u);
  EXPECT_EQ(ctx[0], "gender");
  EXPECT_EQ(ctx[1], "birth");
}

TEST(ContextualTest, ToleranceAdmitsNoisyColumns) {
  // Corrupt one of Yin's gender entries (measurement error).
  Table t = VisitLog(/*last_gender=*/9);
  auto strict = FindContextualColumns(t, "user", 1.0).ValueOrDie();
  EXPECT_EQ(std::count(strict.begin(), strict.end(), "gender"), 0);
  auto tolerant = FindContextualColumns(t, "user", 0.5).ValueOrDie();
  EXPECT_EQ(std::count(tolerant.begin(), tolerant.end(), "gender"), 1);
}

TEST(ContextualTest, ExtractParentOneRowPerSubjectModalValues) {
  // Minority corruption; the mode must win.
  Table t = VisitLog(/*last_gender=*/9);
  auto split = ExtractParent(t, "user", {"gender", "birth"}).ValueOrDie();
  EXPECT_EQ(split.parent.num_rows(), 2u);
  auto groups = split.parent.GroupByColumn("user").ValueOrDie();
  size_t yin_row = groups[Value("Yin")][0];
  EXPECT_EQ(split.parent.at(yin_row, 1).as_int(), 3);  // modal, not 9
  // The child retains the key and the non-contextual columns.
  EXPECT_EQ(split.child.num_columns(), 2u);
  EXPECT_TRUE(split.child.schema().HasField("food"));
  EXPECT_EQ(split.child.num_rows(), 5u);
}

TEST(ContextualTest, KeyCannotBeContextual) {
  EXPECT_FALSE(ExtractParent(VisitLog(), "user", {"user"}).ok());
}

TEST(ContextualTest, SplitConvenienceMatchesManualSteps) {
  auto split = SplitByContextualVariables(VisitLog(), "user").ValueOrDie();
  EXPECT_EQ(split.parent.num_columns(), 3u);  // user + gender + birth
  EXPECT_EQ(split.child.num_columns(), 2u);   // user + food
}

// ---------- flattening ----------

TEST(FlattenTest, CartesianPerSubject) {
  Schema s1({Field("id", ValueType::kInt), Field("a", ValueType::kInt)});
  Schema s2({Field("id", ValueType::kInt), Field("b", ValueType::kInt)});
  Table left(s1), right(s2);
  // Subject 1: 2 left rows x 3 right rows = 6; subject 2: 1 x 1 = 1.
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(left.AppendRow({Value(1), Value(i)}).ok());
  ASSERT_TRUE(left.AppendRow({Value(2), Value(7)}).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(right.AppendRow({Value(1), Value(i)}).ok());
  ASSERT_TRUE(right.AppendRow({Value(2), Value(9)}).ok());

  Table flat = DirectFlatten(left, right, "id").ValueOrDie();
  EXPECT_EQ(flat.num_rows(), 7u);
  EXPECT_EQ(flat.num_columns(), 3u);
  EXPECT_EQ(DirectFlattenRowCount(left, right, "id").ValueOrDie(), 7u);
}

TEST(FlattenTest, EngagedSubjectDominates) {
  // Fig. 4's point: Yin's 8 of 13 rows dominate the flattened table.
  Schema s1({Field("id", ValueType::kString), Field("a", ValueType::kInt)});
  Schema s2({Field("id", ValueType::kString), Field("b", ValueType::kInt)});
  Table left(s1), right(s2);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(left.AppendRow({Value("Yin"), Value(i)}).ok());
  ASSERT_TRUE(left.AppendRow({Value("Anson"), Value(0)}).ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(right.AppendRow({Value("Yin"), Value(i)}).ok());
  ASSERT_TRUE(right.AppendRow({Value("Anson"), Value(0)}).ok());

  Table flat = DirectFlatten(left, right, "id").ValueOrDie();
  auto groups = flat.GroupByColumn("id").ValueOrDie();
  EXPECT_EQ(groups[Value("Yin")].size(), 8u);
  EXPECT_EQ(groups[Value("Anson")].size(), 1u);
}

TEST(FlattenTest, SubjectsMissingFromOneSideDropped) {
  Schema s1({Field("id", ValueType::kInt), Field("a", ValueType::kInt)});
  Schema s2({Field("id", ValueType::kInt), Field("b", ValueType::kInt)});
  Table left(s1), right(s2);
  ASSERT_TRUE(left.AppendRow({Value(1), Value(0)}).ok());
  ASSERT_TRUE(right.AppendRow({Value(2), Value(0)}).ok());
  EXPECT_EQ(DirectFlatten(left, right, "id").ValueOrDie().num_rows(), 0u);
}

TEST(FlattenTest, FeatureNameCollisionFails) {
  Schema s1({Field("id", ValueType::kInt), Field("a", ValueType::kInt)});
  Schema s2({Field("id", ValueType::kInt), Field("a", ValueType::kInt)});
  Table left(s1), right(s2);
  ASSERT_TRUE(left.AppendRow({Value(1), Value(0)}).ok());
  ASSERT_TRUE(right.AppendRow({Value(1), Value(0)}).ok());
  EXPECT_FALSE(DirectFlatten(left, right, "id").ok());
}

// ---------- independence determination ----------

AssociationMatrix ToyMatrix() {
  // Three correlated features + one independent.
  AssociationMatrix m;
  m.names = {"a", "b", "c", "solo"};
  m.values = Matrix(4, 4, 0.0);
  double v[4][4] = {{1.0, 0.8, 0.7, 0.05},
                    {0.8, 1.0, 0.75, 0.10},
                    {0.7, 0.75, 1.0, 0.08},
                    {0.05, 0.10, 0.08, 1.0}};
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) m.values(i, j) = v[i][j];
  }
  return m;
}

TEST(IndependenceTest, ThresholdSeparationUpAndStay) {
  auto m = ToyMatrix();
  auto result = ThresholdSeparation(m, 0.3).ValueOrDie();
  ASSERT_EQ(result.independent.size(), 1u);
  EXPECT_EQ(result.independent[0], "solo");
  EXPECT_EQ(result.dependent.size(), 3u);
}

TEST(IndependenceTest, ThresholdZeroMeansNothingIndependent) {
  auto result = ThresholdSeparation(ToyMatrix(), 0.0).ValueOrDie();
  EXPECT_TRUE(result.independent.empty());
}

TEST(IndependenceTest, MeanAndMedianThresholds) {
  auto m = ToyMatrix();
  double mean = MeanAssociation(m);
  double median = MedianAssociation(m);
  EXPECT_GT(mean, 0.0);
  EXPECT_LT(mean, 1.0);
  EXPECT_GT(median, 0.0);
  // With this matrix the mean threshold isolates 'solo'.
  auto result = ThresholdSeparation(m, mean).ValueOrDie();
  ASSERT_EQ(result.independent.size(), 1u);
  EXPECT_EQ(result.independent[0], "solo");
}

TEST(IndependenceTest, HierarchicalSeparationFindsSingleton) {
  auto result = HierarchicalSeparation(ToyMatrix()).ValueOrDie();
  ASSERT_EQ(result.independent.size(), 1u);
  EXPECT_EQ(result.independent[0], "solo");
}

TEST(HierarchicalClusteringTest, MergeCountAndCuts) {
  std::vector<std::vector<double>> points = {
      {0.0}, {0.1}, {0.2}, {10.0}, {10.1}};
  auto model = HierarchicalClustering::Fit(points).ValueOrDie();
  EXPECT_EQ(model.merges().size(), 4u);
  auto two = model.CutIntoK(2);
  EXPECT_EQ(two[0], two[1]);
  EXPECT_EQ(two[0], two[2]);
  EXPECT_EQ(two[3], two[4]);
  EXPECT_NE(two[0], two[3]);
  auto all = model.CutIntoK(1);
  EXPECT_EQ(all[0], all[4]);
  auto singles = model.CutAtDistance(-1.0);
  std::set<size_t> labels(singles.begin(), singles.end());
  EXPECT_EQ(labels.size(), 5u);
}

TEST(HierarchicalClusteringTest, MergeDistancesNonDecreasingForUltrametric) {
  // Average linkage on well-separated blobs merges cheap pairs first.
  std::vector<std::vector<double>> points = {{0.0}, {1.0}, {100.0}};
  auto model = HierarchicalClustering::Fit(points).ValueOrDie();
  ASSERT_EQ(model.merges().size(), 2u);
  EXPECT_LE(model.merges()[0].distance, model.merges()[1].distance);
}

TEST(HierarchicalClusteringTest, ValidatesInput) {
  EXPECT_FALSE(HierarchicalClustering::Fit({}).ok());
  EXPECT_FALSE(HierarchicalClustering::Fit({{1.0}, {1.0, 2.0}}).ok());
  EXPECT_FALSE(HierarchicalClustering::FitFromDistances({{0.0, 1.0}}).ok());
}

// ---------- reduce + append ----------

Table Fig4Flat() {
  // The flattened table of Fig. 4: removing 'genre' exposes duplicates.
  Schema schema({Field("id", ValueType::kString),
                 Field("lunch", ValueType::kString),
                 Field("dinner", ValueType::kString),
                 Field("genre", ValueType::kString)});
  Table t(schema);
  EXPECT_TRUE(t.AppendRow({Value("Yin"), Value("Spaghetti"), Value("Chicken"),
                           Value("Action")}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Yin"), Value("Spaghetti"), Value("Chicken"),
                           Value("Comedy")}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Yin"), Value("Spaghetti"), Value("Steak"),
                           Value("Action")}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Anson"), Value("Rice"), Value("Rice"),
                           Value("Anime")}).ok());
  return t;
}

TEST(ReduceTest, RemoveAndReduceDeduplicates) {
  Table flat = Fig4Flat();
  ReductionStats stats;
  Table reduced = RemoveAndReduce(flat, {"genre"}, &stats).ValueOrDie();
  EXPECT_EQ(reduced.num_rows(), 3u);  // two Yin rows collapse
  EXPECT_FALSE(reduced.schema().HasField("genre"));
  EXPECT_EQ(stats.rows_before, 4u);
  EXPECT_EQ(stats.rows_after, 3u);
  EXPECT_EQ(stats.columns_removed, 1u);
  EXPECT_NEAR(stats.RowReductionRatio(), 0.25, 1e-12);
}

TEST(ReduceTest, AppendBySamplingUsesPerSubjectPools) {
  // Fig. 4 / Sec. 3.3.3: Anson's pool only contains 'Anime', so every
  // sampled genre for Anson must be 'Anime'.
  Table flat = Fig4Flat();
  Table reduced = RemoveAndReduce(flat, {"genre"}, nullptr).ValueOrDie();
  Rng rng(97);
  Table appended =
      AppendBySampling(reduced, flat, "id", {"genre"}, &rng).ValueOrDie();
  EXPECT_EQ(appended.num_columns(), 4u);
  size_t genre = appended.schema().FieldIndex("genre").ValueOrDie();
  size_t id = appended.schema().FieldIndex("id").ValueOrDie();
  std::set<std::string> yin_pool = {"Action", "Comedy"};
  for (size_t r = 0; r < appended.num_rows(); ++r) {
    if (appended.at(r, id).as_string() == "Anson") {
      EXPECT_EQ(appended.at(r, genre).as_string(), "Anime");
    } else {
      EXPECT_TRUE(yin_pool.count(appended.at(r, genre).as_string()) > 0);
    }
  }
}

TEST(ReduceTest, AppendBySamplingUnknownSubjectFails) {
  Table flat = Fig4Flat();
  Table reduced = RemoveAndReduce(flat, {"genre"}, nullptr).ValueOrDie();
  ASSERT_TRUE(
      reduced.AppendRow({Value("Stranger"), Value("x"), Value("y")}).ok());
  Rng rng(97);
  EXPECT_FALSE(AppendBySampling(reduced, flat, "id", {"genre"}, &rng).ok());
}

TEST(ReduceTest, AppendBySamplingPreservesRowCount) {
  Table flat = Fig4Flat();
  Table reduced = RemoveAndReduce(flat, {"genre"}, nullptr).ValueOrDie();
  Rng rng(101);
  Table appended =
      AppendBySampling(reduced, flat, "id", {"genre"}, &rng).ValueOrDie();
  EXPECT_EQ(appended.num_rows(), reduced.num_rows());
}

}  // namespace
}  // namespace greater
