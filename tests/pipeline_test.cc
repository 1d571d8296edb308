#include <gtest/gtest.h>

#include <set>

#include "crosstable/pipeline.h"
#include "datagen/digix.h"
#include "eval/fidelity.h"

namespace greater {
namespace {

// Shared small dataset; generating once keeps the suite fast.
class PipelineTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(42);
    DigixOptions options;
    options.num_users = 60;
    DigixGenerator gen(options);
    data_ = new DigixDataset(gen.Generate(&rng).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static PipelineOptions FastOptions(FusionMethod fusion,
                                     SemanticMode semantic) {
    PipelineOptions options;
    options.fusion = fusion;
    options.semantic = semantic;
    options.synth.encoder.permutations_per_row = 1;
    return options;
  }

  static DigixDataset* data_;
};

DigixDataset* PipelineTest::data_ = nullptr;

TEST_F(PipelineTest, RealFlatViewHasAllFeatureColumns) {
  MultiTablePipeline pipeline;
  Table real =
      pipeline.BuildRealFlatView(data_->ads, data_->feeds, "user_id")
          .ValueOrDie();
  // parent features (8) + ads per-impression (7) + feeds per-row (6).
  EXPECT_EQ(real.num_columns(), 21u);
  EXPECT_FALSE(real.schema().HasField("user_id"));
  EXPECT_FALSE(real.schema().HasField("e_et"));  // identifiers dropped
  EXPECT_TRUE(real.schema().HasField("gender"));
  EXPECT_TRUE(real.schema().HasField("label"));
  EXPECT_TRUE(real.schema().HasField("his_cat_seq"));
}

TEST_F(PipelineTest, GreaterRunProducesSchemaIdenticalView) {
  MultiTablePipeline pipeline(
      FastOptions(FusionMethod::kGreaterMedianThreshold, SemanticMode::kNone));
  Rng rng(7);
  Table real =
      pipeline.BuildRealFlatView(data_->ads, data_->feeds, "user_id")
          .ValueOrDie();
  PipelineResult result =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &rng).ValueOrDie();
  EXPECT_TRUE(result.synthetic_flat.schema() == real.schema());
  EXPECT_GT(result.synthetic_flat.num_rows(), 50u);
  EXPECT_GT(result.flattened_rows, result.reduction.rows_after);
  // Fidelity must be computable end-to-end.
  auto fid = EvaluateFidelity(real.UniqueRows(), result.synthetic_flat)
                 .ValueOrDie();
  EXPECT_EQ(fid.pairs.size(), 21u * 20u);
  EXPECT_GT(fid.MeanPValue(), 0.0);
}

TEST_F(PipelineTest, ContextualColumnsFeedTheParent) {
  MultiTablePipeline pipeline(
      FastOptions(FusionMethod::kGreaterMedianThreshold, SemanticMode::kNone));
  Rng rng(7);
  PipelineResult result =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &rng).ValueOrDie();
  std::set<std::string> ctx(result.contextual_columns.begin(),
                            result.contextual_columns.end());
  EXPECT_TRUE(ctx.count("gender") > 0);
  EXPECT_TRUE(ctx.count("u_refresh_times") > 0);
  EXPECT_TRUE(result.synthetic_parent.schema().HasField("gender"));
  EXPECT_TRUE(result.synthetic_parent.schema().HasField("user_id"));
}

TEST_F(PipelineTest, IdentifiersDroppedAndRecorded) {
  MultiTablePipeline pipeline(
      FastOptions(FusionMethod::kDirectFlatten, SemanticMode::kNone));
  Rng rng(7);
  PipelineResult result =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &rng).ValueOrDie();
  std::set<std::string> dropped(result.identifier_columns_dropped.begin(),
                                result.identifier_columns_dropped.end());
  EXPECT_TRUE(dropped.count("e_et") > 0);
  EXPECT_TRUE(dropped.count("i_docid") > 0);
  EXPECT_TRUE(dropped.count("i_entities") > 0);
}

TEST_F(PipelineTest, GreaterReductionActuallyReduces) {
  MultiTablePipeline pipeline(
      FastOptions(FusionMethod::kGreaterMedianThreshold, SemanticMode::kNone));
  Rng rng(11);
  PipelineResult result =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &rng).ValueOrDie();
  EXPECT_FALSE(result.independence.independent.empty());
  EXPECT_LT(result.reduction.rows_after, result.reduction.rows_before);
}

TEST_F(PipelineTest, DerecProducesSameViewSchema) {
  MultiTablePipeline pipeline(
      FastOptions(FusionMethod::kDerecIndependent, SemanticMode::kNone));
  Rng rng(13);
  Table real =
      pipeline.BuildRealFlatView(data_->ads, data_->feeds, "user_id")
          .ValueOrDie();
  PipelineResult result =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &rng).ValueOrDie();
  EXPECT_TRUE(result.synthetic_flat.schema() == real.schema());
}

TEST_F(PipelineTest, SemanticEnhancementRoundTripsToOriginalFormat) {
  // Sec. 3.2.3: the model must "always return synthetic data in the same
  // format as the original data" — synthetic values must be valid
  // original-format categories even though training ran on mapped labels.
  MultiTablePipeline pipeline(FastOptions(
      FusionMethod::kGreaterMedianThreshold, SemanticMode::kUnderstandability));
  Rng rng(17);
  PipelineResult result =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &rng).ValueOrDie();
  EXPECT_FALSE(result.semantically_mapped_columns.empty());
  size_t gender =
      result.synthetic_flat.schema().FieldIndex("gender").ValueOrDie();
  EXPECT_EQ(result.synthetic_flat.schema().field(gender).type,
            ValueType::kInt);
  for (size_t r = 0; r < result.synthetic_flat.num_rows(); ++r) {
    int64_t g = result.synthetic_flat.at(r, gender).as_int();
    EXPECT_TRUE(g == 2 || g == 3 || g == 4) << g;
  }
}

TEST_F(PipelineTest, DifferentiabilityModeRuns) {
  MultiTablePipeline pipeline(FastOptions(
      FusionMethod::kGreaterMeanThreshold, SemanticMode::kDifferentiability));
  Rng rng(19);
  PipelineResult result =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &rng).ValueOrDie();
  EXPECT_FALSE(result.semantically_mapped_columns.empty());
  EXPECT_GT(result.synthetic_flat.num_rows(), 0u);
}

TEST_F(PipelineTest, CaretTransformRoundTrips) {
  PipelineOptions options =
      FastOptions(FusionMethod::kGreaterMedianThreshold, SemanticMode::kNone);
  options.apply_caret_transform = true;
  MultiTablePipeline pipeline(options);
  Rng rng(23);
  PipelineResult result =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &rng).ValueOrDie();
  // Output must be back in caret format, with values from the observed
  // per-trial pool.
  size_t seq =
      result.synthetic_flat.schema().FieldIndex("his_cat_seq").ValueOrDie();
  auto observed = data_->feeds.DistinctValues("his_cat_seq").ValueOrDie();
  std::set<std::string> pool;
  for (const Value& v : observed) pool.insert(v.as_string());
  size_t matches = 0;
  for (size_t r = 0; r < result.synthetic_flat.num_rows(); ++r) {
    const std::string& cell =
        result.synthetic_flat.at(r, seq).as_string();
    EXPECT_EQ(cell.find(" and "), std::string::npos) << cell;
    if (pool.count(cell) > 0) ++matches;
  }
  // The caret transform makes sequences multi-token, so some recombined
  // outputs may be novel; most should still come from the observed pool.
  EXPECT_GT(matches, result.synthetic_flat.num_rows() / 2);
}

TEST_F(PipelineTest, HierarchicalFusionRuns) {
  MultiTablePipeline pipeline(
      FastOptions(FusionMethod::kGreaterHierarchical, SemanticMode::kNone));
  Rng rng(29);
  PipelineResult result =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &rng).ValueOrDie();
  EXPECT_GT(result.synthetic_flat.num_rows(), 0u);
}

TEST_F(PipelineTest, NumSyntheticParentsRespected) {
  PipelineOptions options =
      FastOptions(FusionMethod::kGreaterMedianThreshold, SemanticMode::kNone);
  options.num_synthetic_parents = 10;
  MultiTablePipeline pipeline(options);
  Rng rng(31);
  PipelineResult result =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &rng).ValueOrDie();
  EXPECT_EQ(result.synthetic_parent.num_rows(), 10u);
}

TEST_F(PipelineTest, DeterministicGivenSeed) {
  MultiTablePipeline pipeline(
      FastOptions(FusionMethod::kGreaterMedianThreshold, SemanticMode::kNone));
  Rng r1(37), r2(37);
  PipelineResult a =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &r1).ValueOrDie();
  PipelineResult b =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &r2).ValueOrDie();
  EXPECT_TRUE(a.synthetic_flat == b.synthetic_flat);
}

TEST_F(PipelineTest, DisjointSubjectsFail) {
  Table feeds_shifted = data_->feeds;
  size_t uid = feeds_shifted.schema().FieldIndex("user_id").ValueOrDie();
  std::vector<Value> shifted;
  for (size_t r = 0; r < feeds_shifted.num_rows(); ++r) {
    shifted.emplace_back(feeds_shifted.at(r, uid).as_int() + 1000000);
  }
  ASSERT_TRUE(feeds_shifted.ReplaceColumn("user_id", shifted).ok());
  MultiTablePipeline pipeline;
  Rng rng(41);
  EXPECT_FALSE(pipeline.Run(data_->ads, feeds_shifted, "user_id", &rng).ok());
}

}  // namespace
}  // namespace greater
