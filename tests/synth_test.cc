#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "synth/great_synthesizer.h"
#include "synth/relational_synthesizer.h"
#include "synth/textual_encoder.h"
#include "whole_table_fit_reference.h"

namespace greater {
namespace {

// The running example of the paper's Fig. 2.
Table GraceTable() {
  Schema schema({Field("name", ValueType::kString),
                 Field("lunch", ValueType::kInt),
                 Field("dinner", ValueType::kInt),
                 Field("device", ValueType::kInt)});
  Table t(schema);
  const char* names[] = {"Grace", "Yin", "Anson", "Mia", "Leo", "Zoe"};
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    int64_t lunch = rng.UniformInt(1, 2);
    // dinner correlates with lunch; device independent.
    int64_t dinner = rng.Bernoulli(0.8) ? lunch : rng.UniformInt(1, 2);
    int64_t device = rng.UniformInt(1, 3);
    EXPECT_TRUE(
        t.AppendRow({Value(names[i % 6]), Value(lunch), Value(dinner),
                     Value(device)})
            .ok());
  }
  return t;
}

// ---------- TextualEncoder ----------

TEST(EncoderTest, RenderSentenceMatchesGreatFormat) {
  Table t = GraceTable();
  auto enc = TextualEncoder::Build(t).ValueOrDie();
  std::vector<size_t> order = {0, 1, 2, 3};
  std::string s = enc.RenderSentence(t.GetRow(0), order);
  EXPECT_TRUE(s.find("name is ") == 0);
  EXPECT_NE(s.find(", lunch is "), std::string::npos);
}

TEST(EncoderTest, EncodeDecodeRoundTrip) {
  Table t = GraceTable();
  auto enc = TextualEncoder::Build(t).ValueOrDie();
  std::vector<size_t> order = {2, 0, 3, 1};  // any permutation must work
  TokenSequence tokens = enc.EncodeRow(t.GetRow(3), order);
  Row row = enc.DecodeTokens(tokens).ValueOrDie();
  EXPECT_EQ(row, t.GetRow(3));
}

TEST(EncoderTest, SharedLabelsShareTokenIds) {
  // Fig. 2: '1' in lunch and '1' in device tokenize identically.
  Table t = GraceTable();
  auto enc = TextualEncoder::Build(t).ValueOrDie();
  size_t lunch = 1, device = 3;
  TokenId one = enc.vocab().IdOf("1");
  EXPECT_TRUE(enc.IsObservedValueToken(lunch, one));
  EXPECT_TRUE(enc.IsObservedValueToken(device, one));
}

TEST(EncoderTest, EncodeTableEmitsPermutedCopies) {
  Table t = GraceTable();
  TextualEncoder::Options options;
  options.permutations_per_row = 3;
  auto enc = TextualEncoder::Build(t, options).ValueOrDie();
  Rng rng(7);
  auto sequences = enc.EncodeTable(t, &rng).ValueOrDie();
  EXPECT_EQ(sequences.size(), t.num_rows() * 3);
}

TEST(EncoderTest, DecodeRejectsMalformedSequences) {
  Table t = GraceTable();
  auto enc = TextualEncoder::Build(t).ValueOrDie();
  // Missing a column.
  std::vector<size_t> order = {0, 1};
  TokenSequence partial = enc.EncodeRow(t.GetRow(0), order);
  EXPECT_FALSE(enc.DecodeTokens(partial).ok());
  // Garbage start.
  EXPECT_FALSE(enc.DecodeTokens({enc.is_token()}).ok());
  // Duplicate column.
  std::vector<size_t> dup_order = {0, 1, 2, 3};
  TokenSequence full = enc.EncodeRow(t.GetRow(0), dup_order);
  TokenSequence doubled = full;
  doubled.push_back(enc.comma_token());
  doubled.insert(doubled.end(), full.begin(), full.begin() + 3);
  EXPECT_FALSE(enc.DecodeTokens(doubled).ok());
}

TEST(EncoderTest, MultiWordColumnNamesRejected) {
  Schema schema({Field("two words", ValueType::kInt)});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  EXPECT_FALSE(TextualEncoder::Build(t).ok());
}

TEST(EncoderTest, ValuesContainingSeparatorRejected) {
  Schema schema({Field("x", ValueType::kString)});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value("a, b")}).ok());
  EXPECT_FALSE(TextualEncoder::Build(t).ok());
}

TEST(EncoderTest, ParseValueRespectsColumnType) {
  Table t = GraceTable();
  auto enc = TextualEncoder::Build(t).ValueOrDie();
  EXPECT_EQ(enc.ParseValue(1, "2").ValueOrDie(), Value(2));
  EXPECT_FALSE(enc.ParseValue(1, "Grace").ok());
  EXPECT_EQ(enc.ParseValue(0, "Grace").ValueOrDie(), Value("Grace"));
}

TEST(EncoderTest, ExtraCorpusExtendsVocabulary) {
  Table t = GraceTable();
  auto enc =
      TextualEncoder::Build(t, TextualEncoder::Options(), {"quantum leap"})
          .ValueOrDie();
  EXPECT_TRUE(enc.vocab().Contains("quantum"));
  auto encoded = enc.EncodeTextLine("quantum leap");
  EXPECT_NE(encoded[0], Vocabulary::kUnkId);
}

// ---------- GreatSynthesizer ----------

GreatSynthesizer::Options FastOptions() {
  GreatSynthesizer::Options options;
  options.encoder.permutations_per_row = 2;
  return options;
}

TEST(GreatSynthesizerTest, FitThenSampleProducesValidRows) {
  Table t = GraceTable();
  GreatSynthesizer synth(FastOptions());
  Rng rng(11);
  ASSERT_TRUE(synth.Fit(t, &rng).ok());
  Table sample = synth.Sample(40, &rng).ValueOrDie();
  EXPECT_EQ(sample.num_rows(), 40u);
  EXPECT_EQ(sample.schema(), t.schema());
  // Every categorical value must come from the observed domain.
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    int64_t lunch = sample.at(r, 1).as_int();
    EXPECT_GE(lunch, 1);
    EXPECT_LE(lunch, 2);
    int64_t device = sample.at(r, 3).as_int();
    EXPECT_GE(device, 1);
    EXPECT_LE(device, 3);
  }
}

TEST(GreatSynthesizerTest, SampleBeforeFitFails) {
  GreatSynthesizer synth;
  Rng rng(1);
  EXPECT_FALSE(synth.Sample(1, &rng).ok());
  EXPECT_FALSE(synth.SampleRow(&rng).ok());
}

TEST(GreatSynthesizerTest, FitOnEmptyTableFails) {
  GreatSynthesizer synth;
  Rng rng(1);
  Table empty(Schema({Field("x", ValueType::kInt)}));
  EXPECT_FALSE(synth.Fit(empty, &rng).ok());
}

TEST(GreatSynthesizerTest, DoubleFitFails) {
  Table t = GraceTable();
  GreatSynthesizer synth(FastOptions());
  Rng rng(2);
  ASSERT_TRUE(synth.Fit(t, &rng).ok());
  EXPECT_FALSE(synth.Fit(t, &rng).ok());
}

TEST(GreatSynthesizerTest, DeterministicGivenSeed) {
  Table t = GraceTable();
  GreatSynthesizer s1(FastOptions()), s2(FastOptions());
  Rng r1(33), r2(33);
  ASSERT_TRUE(s1.Fit(t, &r1).ok());
  ASSERT_TRUE(s2.Fit(t, &r2).ok());
  Table a = s1.Sample(10, &r1).ValueOrDie();
  Table b = s2.Sample(10, &r2).ValueOrDie();
  EXPECT_EQ(a, b);
}

TEST(GreatSynthesizerTest, MarginalsApproximatelyPreserved) {
  Table t = GraceTable();
  GreatSynthesizer synth(FastOptions());
  Rng rng(17);
  ASSERT_TRUE(synth.Fit(t, &rng).ok());
  Table sample = synth.Sample(300, &rng).ValueOrDie();
  auto train_counts = t.ValueCounts("lunch").ValueOrDie();
  auto syn_counts = sample.ValueCounts("lunch").ValueOrDie();
  double train_p1 = static_cast<double>(train_counts[Value(1)]) /
                    static_cast<double>(t.num_rows());
  double syn_p1 = static_cast<double>(syn_counts[Value(1)]) /
                  static_cast<double>(sample.num_rows());
  EXPECT_NEAR(syn_p1, train_p1, 0.15);
}

TEST(GreatSynthesizerTest, LearnsCrossColumnDependence) {
  // dinner follows lunch with probability ~0.9 in GraceTable. With random
  // feature-order permutations the adjacency signal is diluted, so the
  // synthetic dependence is attenuated but must stay above chance (~0.5);
  // with a fixed feature order the model sees lunch immediately before
  // dinner in every sentence and must capture the dependence strongly.
  Table t = GraceTable();
  {
    GreatSynthesizer synth(FastOptions());
    Rng rng(19);
    ASSERT_TRUE(synth.Fit(t, &rng).ok());
    Table sample = synth.Sample(400, &rng).ValueOrDie();
    size_t match = 0;
    for (size_t r = 0; r < sample.num_rows(); ++r) {
      if (sample.at(r, 1) == sample.at(r, 2)) ++match;
    }
    double rate = static_cast<double>(match) /
                  static_cast<double>(sample.num_rows());
    EXPECT_GT(rate, 0.54);
  }
  {
    GreatSynthesizer::Options options = FastOptions();
    options.encoder.permute_features = false;
    options.encoder.permutations_per_row = 1;
    GreatSynthesizer synth(options);
    Rng rng(19);
    ASSERT_TRUE(synth.Fit(t, &rng).ok());
    Table sample = synth.Sample(400, &rng).ValueOrDie();
    size_t match = 0;
    for (size_t r = 0; r < sample.num_rows(); ++r) {
      if (sample.at(r, 1) == sample.at(r, 2)) ++match;
    }
    double rate = static_cast<double>(match) /
                  static_cast<double>(sample.num_rows());
    EXPECT_GT(rate, 0.7);
  }
}

TEST(GreatSynthesizerTest, ConditionalSamplingForcesValues) {
  Table t = GraceTable();
  GreatSynthesizer synth(FastOptions());
  Rng rng(23);
  ASSERT_TRUE(synth.Fit(t, &rng).ok());
  Table conditions(Schema({Field("name", ValueType::kString)}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(conditions.AppendRow({Value("Grace")}).ok());
  }
  Table sample = synth.SampleConditional(conditions, &rng).ValueOrDie();
  EXPECT_EQ(sample.num_rows(), 10u);
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    EXPECT_EQ(sample.at(r, 0).as_string(), "Grace");
  }
}

TEST(GreatSynthesizerTest, ConditionalValuesMayBeUnseen) {
  // Forcing a value absent from training must still work (synthetic
  // parents carry surrogate keys the child model never saw).
  Table t = GraceTable();
  GreatSynthesizer synth(FastOptions());
  Rng rng(29);
  ASSERT_TRUE(synth.Fit(t, &rng).ok());
  std::map<std::string, Value> forced = {{"name", Value("Nobody")}};
  Row row = synth.SampleRow(&rng, &forced).ValueOrDie();
  EXPECT_EQ(row[0].as_string(), "Nobody");
}

TEST(GreatSynthesizerTest, StatsAccumulate) {
  Table t = GraceTable();
  GreatSynthesizer synth(FastOptions());
  Rng rng(31);
  ASSERT_TRUE(synth.Fit(t, &rng).ok());
  (void)synth.Sample(20, &rng);
  EXPECT_EQ(synth.stats().rows_emitted, 20u);
  EXPECT_GE(synth.stats().attempts, 20u);
}

TEST(GreatSynthesizerTest, TrainingBudgetSubsamples) {
  Table t = GraceTable();
  GreatSynthesizer::Options options = FastOptions();
  options.max_training_sequences = 10;  // far below 60*2
  GreatSynthesizer synth(options);
  Rng rng(37);
  ASSERT_TRUE(synth.Fit(t, &rng).ok());
  // Still functional, just lower fidelity.
  EXPECT_TRUE(synth.Sample(5, &rng).ok());
}

TEST(GreatSynthesizerTest, FreeValueModeStillProducesValidRows) {
  Table t = GraceTable();
  GreatSynthesizer::Options options = FastOptions();
  options.constrain_values_to_column = false;
  GreatSynthesizer synth(options);
  Rng rng(41);
  ASSERT_TRUE(synth.Fit(t, &rng).ok());
  Table sample = synth.Sample(30, &rng).ValueOrDie();
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    int64_t lunch = sample.at(r, 1).as_int();
    EXPECT_GE(lunch, 1);
    EXPECT_LE(lunch, 2);
  }
}

TEST(GreatSynthesizerTest, NeuralBackboneEndToEnd) {
  Table t = GraceTable();
  GreatSynthesizer::Options options = FastOptions();
  options.backbone = GreatSynthesizer::Backbone::kNeural;
  options.neural.epochs = 4;
  options.neural.context_window = 4;
  options.neural.embed_dim = 8;
  options.neural.hidden_dim = 16;
  GreatSynthesizer synth(options);
  Rng rng(43);
  ASSERT_TRUE(synth.Fit(t, &rng).ok());
  Table sample = synth.Sample(10, &rng).ValueOrDie();
  EXPECT_EQ(sample.num_rows(), 10u);
  EXPECT_EQ(sample.schema(), t.schema());
}

// A table for the fit-core oracle: repeated and multi-word categories, an
// int column whose labels collide with another column's tokens, a double
// column and null cells — every way a distinct value can be keyed.
Table MixedFitTable() {
  Schema schema({Field("city", ValueType::kString),
                 Field("visits", ValueType::kInt),
                 Field("spend", ValueType::kDouble),
                 Field("device", ValueType::kInt)});
  Table t(schema);
  const char* cities[] = {"New York", "Paris", "Chicago", "Lima 1"};
  Rng rng(13);
  for (int i = 0; i < 48; ++i) {
    int64_t visits = rng.UniformInt(1, 4);
    Value spend = i % 11 == 5 ? Value::Null()
                              : Value(0.5 * static_cast<double>(visits) +
                                      static_cast<double>(i % 3));
    EXPECT_TRUE(t.AppendRow({Value(cities[(i * 7) % 4]), Value(visits),
                             spend, Value(rng.UniformInt(1, 3))})
                    .ok());
  }
  return t;
}

TEST(GreatSynthesizerTest, FitMatchesWholeTableReference) {
  Table train = MixedFitTable();
  GreatSynthesizer::Options neural = FastOptions();
  neural.backbone = GreatSynthesizer::Backbone::kNeural;
  neural.neural.epochs = 2;
  neural.neural.context_window = 4;
  neural.neural.embed_dim = 8;
  neural.neural.hidden_dim = 16;
  GreatSynthesizer::Options prior = FastOptions();
  prior.prior_corpus = {"visits to New York and Paris", "Lima is far"};
  prior.prior_weight = 0.5;
  GreatSynthesizer::Options subsample = FastOptions();
  subsample.max_training_sequences = 30;  // below 48 rows x 2 copies
  GreatSynthesizer::Options neural_prior_subsample = neural;
  neural_prior_subsample.prior_corpus = prior.prior_corpus;
  neural_prior_subsample.max_training_sequences = 30;
  const std::vector<std::pair<const char*, GreatSynthesizer::Options>>
      configs = {{"ngram", FastOptions()},
                 {"neural", neural},
                 {"prior corpus", prior},
                 {"max_training_sequences", subsample},
                 {"neural + prior + subsample", neural_prior_subsample}};
  for (auto [name, options] : configs) {
    SCOPED_TRACE(name);
    // Lenient: the weakly trained neural backbone may exhaust a row; the
    // two runs must then exhaust the same rows.
    options.policy = SamplePolicy::kLenient;
    GreatSynthesizer reference(options);
    Rng reference_rng(23);
    ASSERT_TRUE(
        WholeTableFitReference::Fit(&reference, train, &reference_rng).ok());
    GreatSynthesizer fitted(options);
    Rng fit_rng(23);
    ASSERT_TRUE(fitted.Fit(train, &fit_rng).ok());

    EXPECT_EQ(fitted.SerializeBinary().ValueOrDie(),
              reference.SerializeBinary().ValueOrDie());
    // The fit consumed exactly the reference's draws.
    EXPECT_EQ(fit_rng.SaveState(), reference_rng.SaveState());
    Rng fitted_sample_rng(99);
    Rng reference_sample_rng(99);
    Result<Table> fitted_rows =
        fitted.SampleRows(25, &fitted_sample_rng, nullptr);
    Result<Table> reference_rows =
        reference.SampleRows(25, &reference_sample_rng, nullptr);
    ASSERT_TRUE(fitted_rows.ok()) << fitted_rows.status();
    ASSERT_TRUE(reference_rows.ok()) << reference_rows.status();
    EXPECT_GT(fitted_rows->num_rows(), 0u);
    EXPECT_EQ(*fitted_rows, *reference_rows);
  }
}

TEST(GreatSynthesizerTest, PerplexityFiniteAfterFit) {
  Table t = GraceTable();
  GreatSynthesizer synth(FastOptions());
  Rng rng(47);
  ASSERT_TRUE(synth.Fit(t, &rng).ok());
  double ppl = synth.EvaluatePerplexity(t).ValueOrDie();
  EXPECT_GT(ppl, 1.0);
  EXPECT_LT(ppl, 100.0);
}

// ---------- RelationalSynthesizer ----------

struct ParentChildData {
  Table parent;
  Table child;
};

ParentChildData MakeParentChild() {
  ParentChildData data;
  data.parent = Table(Schema({Field("id", ValueType::kInt),
                              Field("gender", ValueType::kInt),
                              Field("age", ValueType::kInt)}));
  data.child = Table(Schema({Field("id", ValueType::kInt),
                             Field("item", ValueType::kInt),
                             Field("liked", ValueType::kInt)}));
  Rng rng(53);
  for (int64_t id = 0; id < 30; ++id) {
    int64_t gender = rng.UniformInt(2, 3);
    int64_t age = rng.UniformInt(2, 5);
    EXPECT_TRUE(
        data.parent.AppendRow({Value(id), Value(gender), Value(age)}).ok());
    int64_t visits = rng.UniformInt(1, 4);
    for (int64_t v = 0; v < visits; ++v) {
      // item depends on age; liked depends on item.
      int64_t item = rng.Bernoulli(0.7) ? age : rng.UniformInt(2, 5);
      int64_t liked = rng.Bernoulli(0.8) ? (item % 2) : rng.UniformInt(0, 1);
      EXPECT_TRUE(
          data.child.AppendRow({Value(id), Value(item), Value(liked)}).ok());
    }
  }
  return data;
}

RelationalSynthesizer::Options FastRelationalOptions() {
  RelationalSynthesizer::Options options;
  options.parent.encoder.permutations_per_row = 2;
  options.child.encoder.permutations_per_row = 2;
  return options;
}

TEST(RelationalTest, FitValidatesStructure) {
  auto data = MakeParentChild();
  Rng rng(59);
  {
    RelationalSynthesizer rs(FastRelationalOptions());
    EXPECT_FALSE(rs.Fit(data.parent, data.child, "missing", &rng).ok());
  }
  {
    // Duplicate parent key.
    Table bad_parent = data.parent;
    ASSERT_TRUE(bad_parent.AppendRow({Value(0), Value(2), Value(2)}).ok());
    RelationalSynthesizer rs(FastRelationalOptions());
    EXPECT_FALSE(rs.Fit(bad_parent, data.child, "id", &rng).ok());
  }
  {
    // Orphan child key.
    Table bad_child = data.child;
    ASSERT_TRUE(bad_child.AppendRow({Value(999), Value(2), Value(0)}).ok());
    RelationalSynthesizer rs(FastRelationalOptions());
    EXPECT_FALSE(rs.Fit(data.parent, bad_child, "id", &rng).ok());
  }
}

TEST(RelationalTest, SampleProducesLinkedTables) {
  auto data = MakeParentChild();
  RelationalSynthesizer rs(FastRelationalOptions());
  Rng rng(61);
  ASSERT_TRUE(rs.Fit(data.parent, data.child, "id", &rng).ok());
  auto sample = rs.Sample(15, &rng).ValueOrDie();
  EXPECT_EQ(sample.parent.num_rows(), 15u);
  EXPECT_EQ(sample.parent.schema(), data.parent.schema());
  EXPECT_EQ(sample.child.schema(), data.child.schema());
  // Every child key must reference a synthetic parent.
  auto parent_keys = sample.parent.DistinctValues("id").ValueOrDie();
  std::set<Value> keys(parent_keys.begin(), parent_keys.end());
  for (size_t r = 0; r < sample.child.num_rows(); ++r) {
    EXPECT_TRUE(keys.count(sample.child.at(r, 0)) > 0);
  }
  EXPECT_GT(sample.child.num_rows(), 0u);
}

TEST(RelationalTest, ChildCountsComeFromEmpiricalPool) {
  auto data = MakeParentChild();
  RelationalSynthesizer rs(FastRelationalOptions());
  Rng rng(67);
  ASSERT_TRUE(rs.Fit(data.parent, data.child, "id", &rng).ok());
  for (size_t count : rs.child_counts()) {
    EXPECT_GE(count, 1u);
    EXPECT_LE(count, 4u);
  }
}

TEST(RelationalTest, SampleChildrenConditionsOnProvidedParent) {
  auto data = MakeParentChild();
  RelationalSynthesizer rs(FastRelationalOptions());
  Rng rng(71);
  ASSERT_TRUE(rs.Fit(data.parent, data.child, "id", &rng).ok());
  auto sample = rs.Sample(5, &rng).ValueOrDie();
  Table more_children = rs.SampleChildren(sample.parent, &rng).ValueOrDie();
  EXPECT_GT(more_children.num_rows(), 0u);
  EXPECT_EQ(more_children.schema(), data.child.schema());
  // Wrong schema is rejected.
  EXPECT_FALSE(rs.SampleChildren(data.child, &rng).ok());
}

TEST(RelationalTest, SampleBeforeFitFails) {
  RelationalSynthesizer rs;
  Rng rng(73);
  EXPECT_FALSE(rs.Sample(3, &rng).ok());
}

TEST(RelationalTest, ColumnNameCollisionRejected) {
  auto data = MakeParentChild();
  Table child_clash = data.child;
  ASSERT_TRUE(child_clash.RenameColumn("item", "gender").ok());
  RelationalSynthesizer rs(FastRelationalOptions());
  Rng rng(79);
  EXPECT_FALSE(rs.Fit(data.parent, child_clash, "id", &rng).ok());
}

}  // namespace
}  // namespace greater
