#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "common/artifact_io.h"
#include "common/rng.h"
#include "datagen/digix.h"
#include "lm/decode_cache.h"
#include "lm/neural_lm.h"
#include "lm/ngram_lm.h"
#include "node_map_ngram_reference.h"
#include "synth/textual_encoder.h"
#include "text/vocabulary.h"

namespace greater {
namespace {

// Builds a vocabulary + deterministic sequences of "a b c a b c ...".
struct TinyCorpus {
  Vocabulary vocab;
  TokenId a, b, c;
  std::vector<TokenSequence> sequences;

  TinyCorpus() {
    a = vocab.AddToken("a");
    b = vocab.AddToken("b");
    c = vocab.AddToken("c");
    for (int i = 0; i < 20; ++i) {
      sequences.push_back({a, b, c, a, b, c});
    }
  }
};

// ---------- NGramLm ----------

TEST(NGramLmTest, FitValidatesInput) {
  NGramLm lm(10);
  EXPECT_FALSE(lm.Fit({}).ok());
  EXPECT_FALSE(lm.Fit({{100}}).ok());  // token id out of range
  EXPECT_TRUE(lm.Fit({{1, 2, 3}}).ok());
  EXPECT_FALSE(lm.Fit({{1}}).ok());  // double fit
}

TEST(NGramLmTest, UnfittedDistributionIsUniform) {
  NGramLm lm(5);
  auto dist = lm.NextTokenDistribution({});
  for (double p : dist) EXPECT_DOUBLE_EQ(p, 0.2);
}

TEST(NGramLmTest, DistributionSumsToOne) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  for (const TokenSequence& ctx :
       {TokenSequence{}, TokenSequence{corpus.a},
        TokenSequence{corpus.a, corpus.b}}) {
    auto dist = lm.NextTokenDistribution(ctx);
    double sum = 0.0;
    for (double p : dist) {
      sum += p;
      EXPECT_GE(p, 0.0);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(NGramLmTest, LearnsDeterministicPattern) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  auto dist = lm.NextTokenDistribution({corpus.a});
  EXPECT_GT(dist[static_cast<size_t>(corpus.b)], 0.8);
  auto dist2 = lm.NextTokenDistribution({corpus.a, corpus.b});
  EXPECT_GT(dist2[static_cast<size_t>(corpus.c)], 0.8);
}

TEST(NGramLmTest, PredictsEosAtSequenceEnd) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  // At the default order the context "c a b c" is only ever followed by
  // eos in the training data, so eos dominates; `a` picks up whatever the
  // shorter-context interpolation leaks in.
  auto dist = lm.NextTokenDistribution(
      {corpus.a, corpus.b, corpus.c, corpus.a, corpus.b, corpus.c});
  EXPECT_GT(dist[Vocabulary::kEosId], 0.5);
  EXPECT_GT(dist[Vocabulary::kEosId] + dist[static_cast<size_t>(corpus.a)],
            0.9);
}

TEST(NGramLmTest, PerplexityLowOnTrainingPattern) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  double ppl = lm.Perplexity(corpus.sequences);
  EXPECT_LT(ppl, 2.0);
  EXPECT_GE(ppl, 1.0);
}

TEST(NGramLmTest, SamplingIsDeterministicGivenSeed) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  Rng r1(42), r2(42);
  auto s1 = lm.SampleSequence({corpus.a}, 12, &r1);
  auto s2 = lm.SampleSequence({corpus.a}, 12, &r2);
  EXPECT_EQ(s1, s2);
}

TEST(NGramLmTest, SampleSequenceFollowsPattern) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  Rng rng(1);
  auto seq = lm.SampleSequence({corpus.a}, 6, &rng);
  ASSERT_GE(seq.size(), 3u);
  EXPECT_EQ(seq[1], corpus.b);
  EXPECT_EQ(seq[2], corpus.c);
}

TEST(NGramLmTest, ConstrainedSamplingRespectsAllowList) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  Rng rng(3);
  std::vector<TokenId> allowed = {corpus.c};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(lm.SampleNext({corpus.a}, &rng, 1.0, &allowed), corpus.c);
  }
}

TEST(NGramLmTest, ConstrainedSamplingZeroMassFallsBackUniform) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  Rng rng(3);
  // Empty allow-list -> eos sentinel.
  std::vector<TokenId> empty;
  EXPECT_EQ(lm.SampleNext({corpus.a}, &rng, 1.0, &empty), Vocabulary::kEosId);
}

TEST(NGramLmTest, ArgmaxNext) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  EXPECT_EQ(lm.ArgmaxNext({corpus.a}), corpus.b);
}

TEST(NGramLmTest, TemperatureSharpensDistribution) {
  TinyCorpus corpus;
  // Add some noise sequences so the pattern is not fully deterministic.
  corpus.sequences.push_back({corpus.a, corpus.c});
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  Rng cold(5);
  int b_count_cold = 0;
  for (int i = 0; i < 200; ++i) {
    if (lm.SampleNext({corpus.a}, &cold, 0.1) == corpus.b) ++b_count_cold;
  }
  // Near-greedy at low temperature.
  EXPECT_GT(b_count_cold, 190);
}

TEST(NGramLmTest, PriorCorpusInfluencesBackoff) {
  TinyCorpus corpus;
  NGramLm::Options options;
  options.prior_weight = 1.0;
  NGramLm with_prior(corpus.vocab.size(), options);
  // Prior teaches a -> c, conflicting with the training a -> b.
  std::vector<TokenSequence> prior(20, TokenSequence{corpus.a, corpus.c});
  ASSERT_TRUE(with_prior.SetPriorCorpus(prior).ok());
  ASSERT_TRUE(with_prior.Fit(corpus.sequences).ok());

  NGramLm without_prior(corpus.vocab.size());
  ASSERT_TRUE(without_prior.Fit(corpus.sequences).ok());

  double pc_with = with_prior.NextTokenDistribution({corpus.a})[
      static_cast<size_t>(corpus.c)];
  double pc_without = without_prior.NextTokenDistribution({corpus.a})[
      static_cast<size_t>(corpus.c)];
  EXPECT_GT(pc_with, pc_without);
}

TEST(NGramLmTest, SetPriorAfterFitFails) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  EXPECT_FALSE(lm.SetPriorCorpus({{corpus.a}}).ok());
}

// Order sweep: every order must learn the deterministic pattern.
class NGramOrderTest : public testing::TestWithParam<size_t> {};

TEST_P(NGramOrderTest, LearnsPatternAtEveryOrder) {
  TinyCorpus corpus;
  NGramLm::Options options;
  options.order = GetParam();
  NGramLm lm(corpus.vocab.size(), options);
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  auto dist = lm.NextTokenDistribution({corpus.a});
  EXPECT_GT(dist[static_cast<size_t>(corpus.b)], 0.5)
      << "order=" << GetParam();
  double sum = 0.0;
  for (double p : dist) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Orders, NGramOrderTest,
                         testing::Values(2, 3, 4, 5, 6, 7, 8));

// ---------- NGramLm vs the node-map reference ----------

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool BitwiseEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Splits `sequences` into chunks of `chunk_size` (the last one ragged).
std::vector<std::vector<TokenSequence>> Chunked(
    const std::vector<TokenSequence>& sequences, size_t chunk_size) {
  std::vector<std::vector<TokenSequence>> chunks;
  for (size_t i = 0; i < sequences.size(); i += chunk_size) {
    size_t end = std::min(sequences.size(), i + chunk_size);
    chunks.emplace_back(sequences.begin() + static_cast<ptrdiff_t>(i),
                        sequences.begin() + static_cast<ptrdiff_t>(end));
  }
  return chunks;
}

// Fits `lm` and the reference on the same chunks and shard count, then
// asserts equal bytes and bitwise-equal evaluations on every prefix of the
// probe sequences, under every allow-list.
void ExpectMatchesReference(size_t vocab_size, const NGramLm::Options& options,
                            const std::vector<TokenSequence>& prior,
                            const std::vector<std::vector<TokenSequence>>& chunks,
                            size_t num_shards,
                            const std::vector<TokenSequence>& probes,
                            const std::vector<std::vector<TokenId>>& lists,
                            const std::string& label) {
  SCOPED_TRACE(label + " shards=" + std::to_string(num_shards));
  NodeMapNGramReference reference(vocab_size, options);
  reference.SetPriorCorpus(prior);
  reference.Fit(chunks, num_shards);

  NGramLm lm(vocab_size, options);
  ASSERT_TRUE(lm.SetPriorCorpus(prior).ok());
  size_t next = 0;
  Status fit = lm.FitStreaming(
      [&]() -> Result<std::optional<std::vector<TokenSequence>>> {
        if (next == chunks.size()) {
          return std::optional<std::vector<TokenSequence>>();
        }
        return std::optional<std::vector<TokenSequence>>(chunks[next++]);
      },
      num_shards);
  ASSERT_TRUE(fit.ok()) << fit;
  ASSERT_EQ(lm.SerializeBinary(), reference.SerializeBinary());

  std::vector<double> got, want;
  DecodeWorkspace workspace;
  for (const TokenSequence& probe : probes) {
    for (size_t len = 0; len <= probe.size(); ++len) {
      TokenSequence context(probe.begin(),
                            probe.begin() + static_cast<ptrdiff_t>(len));
      ASSERT_TRUE(BitwiseEqual(lm.NextTokenDistribution(context),
                               reference.NextTokenDistribution(context)))
          << "NextTokenDistribution at prefix " << len;
      for (size_t l = 0; l < lists.size(); ++l) {
        reference.NextTokenWeightsRestricted(context, lists[l], &want);
        // Without a workspace every list takes the run-merge paths; with
        // one, wide lists take the full-vocabulary walk.
        for (DecodeWorkspace* ws : {static_cast<DecodeWorkspace*>(nullptr),
                                    &workspace}) {
          lm.NextTokenWeightsRestricted(context, lists[l], ws, &got);
          ASSERT_TRUE(BitwiseEqual(got, want))
              << "NextTokenWeightsRestricted list " << l << " prefix " << len
              << (ws != nullptr ? " with" : " without") << " workspace";
        }
      }
      // Out-of-range ids, a stride through the vocabulary, and the
      // probe's own next token (seen at every level).
      std::vector<TokenId> tokens = {-1, static_cast<TokenId>(vocab_size),
                                     Vocabulary::kEosId};
      for (size_t id = 0; id < vocab_size; id += 1 + vocab_size / 97) {
        tokens.push_back(static_cast<TokenId>(id));
      }
      if (len < probe.size()) tokens.push_back(probe[len]);
      for (TokenId token : tokens) {
        ASSERT_TRUE(BitwiseEqual(lm.TokenLogProb(context, token, nullptr),
                                 reference.TokenLogProb(context, token)))
            << "TokenLogProb token " << token << " prefix " << len;
      }
    }
  }
}

TEST(NGramLmTest, NGramMatchesNodeMapReference) {
  // Random corpus over a small vocabulary: dense shared contexts, every
  // order, with and without a fractional-weight prior corpus.
  const size_t vocab_size = 14;
  Rng rng(2024);
  auto random_sequences = [&](size_t count) {
    std::vector<TokenSequence> out(count);
    for (TokenSequence& seq : out) {
      size_t len = 1 + rng.Index(9);
      for (size_t i = 0; i < len; ++i) {
        seq.push_back(static_cast<TokenId>(
            Vocabulary::kEosId + 1 +
            rng.Index(vocab_size - Vocabulary::kEosId - 1)));
      }
    }
    return out;
  };
  const std::vector<TokenSequence> corpus = random_sequences(240);
  const std::vector<TokenSequence> prior = random_sequences(40);
  const std::vector<TokenSequence> probes(corpus.begin(), corpus.begin() + 6);
  std::vector<TokenId> wide;
  for (size_t id = 0; id < vocab_size; ++id) {
    wide.push_back(static_cast<TokenId>(id));
  }
  // Sorted wide, sorted narrow, unsorted with a duplicate and
  // out-of-range ids, empty.
  const std::vector<std::vector<TokenId>> lists = {
      wide,
      {5, static_cast<TokenId>(vocab_size - 1)},
      {9, -1, 4, static_cast<TokenId>(vocab_size + 3), 4, 0},
      {}};
  for (size_t order = 2; order <= 8; ++order) {
    for (double weight : {0.0, 0.37}) {
      NGramLm::Options options;
      options.order = order;
      options.prior_weight = weight;
      for (size_t shards : {1u, 2u, 3u}) {
        ExpectMatchesReference(
            vocab_size, options, prior, Chunked(corpus, 50), shards, probes,
            lists,
            "order=" + std::to_string(order) +
                " prior=" + std::to_string(weight));
      }
    }
  }

  // A Digix ads table, identifier columns excluded: the high-cardinality
  // user_id column makes a ~5000-wide allow-list.
  DigixOptions data;
  data.num_users = 5000;
  data.include_identifier_columns = false;
  Rng data_rng(7);
  Result<DigixDataset> generated = DigixGenerator(data).Generate(&data_rng);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const Table& ads = generated->ads;
  Result<TextualEncoder> encoder =
      TextualEncoder::Build(ads, TextualEncoder::Options(), {});
  ASSERT_TRUE(encoder.ok()) << encoder.status();
  Rng encode_rng(11);
  Result<std::vector<TokenSequence>> sequences =
      encoder->EncodeTable(ads, &encode_rng);
  ASSERT_TRUE(sequences.ok()) << sequences.status();
  const size_t digix_vocab = encoder->vocab().size();

  std::vector<TokenId> user_ids, narrow;
  for (const EncodedColumn& column : encoder->columns()) {
    if (column.name == DigixGenerator::KeyColumn()) {
      user_ids = column.value_tokens;
    } else if (narrow.empty() || column.value_tokens.size() < narrow.size()) {
      narrow = column.value_tokens;
    }
  }
  ASSERT_GE(user_ids.size(), 4000u);
  std::vector<TokenId> scrambled(user_ids.rbegin(), user_ids.rend());
  scrambled.push_back(-3);
  scrambled.push_back(static_cast<TokenId>(digix_vocab + 10));
  const std::vector<std::vector<TokenId>> digix_lists = {
      user_ids, narrow, scrambled, {}};
  // The first 3000 encoded rows keep the fits quick; the allow-lists
  // still span the whole table's vocabulary.
  const std::vector<TokenSequence> digix_corpus(sequences->begin(),
                                                sequences->begin() + 3000);
  const std::vector<TokenSequence> digix_prior(sequences->begin() + 3000,
                                               sequences->begin() + 3300);
  const std::vector<TokenSequence> digix_probes(sequences->begin() + 100,
                                                sequences->begin() + 102);
  for (double weight : {0.0, 0.37}) {
    NGramLm::Options options;
    options.prior_weight = weight;
    for (size_t shards : {1u, 2u, 3u}) {
      ExpectMatchesReference(digix_vocab, options, digix_prior,
                             Chunked(digix_corpus, 700), shards, digix_probes,
                             digix_lists,
                             "digix prior=" + std::to_string(weight));
    }
  }
}

// A hand-built fitted payload of order 3 whose level 0 holds no context
// (only the loader can produce one). Level 1 is empty too, or holds the
// context {4} with one cell.
std::string NoUnigramModelBytes(uint64_t vocab_size, bool level1_context) {
  ByteWriter w;
  w.PutU64(vocab_size);
  w.PutU64(3);    // order
  w.PutF64(0.0);  // prior weight
  w.PutBool(true);
  w.PutU32(3);    // levels
  w.PutU64(0);    // level 0: no context
  w.PutU64(level1_context ? 1 : 0);
  if (level1_context) {
    w.PutU32(1);
    w.PutU32(4);
    w.PutF64(2.0);
    w.PutU32(1);
    w.PutU32(5);
    w.PutF64(2.0);
  }
  w.PutU64(0);    // level 2
  ArtifactWriter doc("greater.ngram_lm", 1);
  doc.AddChunk("model", std::move(w).Take());
  return doc.Finish();
}

TEST(NGramLmTest, ModelWithoutUnigramContextStaysUniform) {
  const size_t vocab_size = 16;
  const double uniform = 1.0 / static_cast<double>(vocab_size);
  std::vector<TokenId> all;
  for (size_t id = 0; id < vocab_size; ++id) {
    all.push_back(static_cast<TokenId>(id));
  }
  // Wide and sorted, narrow, unsorted with a duplicate and out-of-range
  // ids, empty.
  const std::vector<std::vector<TokenId>> lists = {
      all, {5}, {9, -1, 4, 40, 4, 0}, {}};
  for (bool level1_context : {false, true}) {
    SCOPED_TRACE(level1_context ? "level 1 context" : "no context");
    NGramLm lm(1);
    ASSERT_TRUE(
        lm.DeserializeBinary(NoUnigramModelBytes(vocab_size, level1_context))
            .ok());
    ASSERT_TRUE(lm.fitted());
    for (const TokenSequence& context :
         {TokenSequence{}, TokenSequence{4}, TokenSequence{7, 4}}) {
      const std::vector<double> dist = lm.NextTokenDistribution(context);
      ASSERT_EQ(dist.size(), vocab_size);
      for (double p : dist) EXPECT_EQ(p, uniform);
      DecodeWorkspace ws;
      for (TokenId token : {TokenId(0), TokenId(5), TokenId(15)}) {
        EXPECT_EQ(lm.TokenLogProb(context, token, nullptr),
                  std::log(uniform));
        EXPECT_EQ(lm.TokenLogProb(context, token, &ws), std::log(uniform));
      }
      for (const std::vector<TokenId>& list : lists) {
        std::vector<double> gather;
        for (TokenId id : list) {
          const bool in_range =
              id >= 0 && static_cast<size_t>(id) < vocab_size;
          gather.push_back(in_range ? dist[static_cast<size_t>(id)] : 0.0);
        }
        std::vector<double> plain, with_ws;
        lm.NextTokenWeightsRestricted(context, list, nullptr, &plain);
        lm.NextTokenWeightsRestricted(context, list, &ws, &with_ws);
        EXPECT_EQ(plain, gather);
        EXPECT_EQ(with_ws, gather);
      }
    }
  }
}

TEST(NGramLmTest, VocabularyBeyondTokenIdRangeFailsToLoad) {
  // The loader sizes one double per token id; a vocabulary past the
  // TokenId range is corrupt, not an allocation to attempt.
  NGramLm lm(3);
  Status status =
      lm.DeserializeBinary(NoUnigramModelBytes(uint64_t{1} << 40, false));
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_EQ(lm.vocab_size(), 3u);
  EXPECT_FALSE(lm.fitted());
}

// ---------- NeuralLm ----------

TEST(NeuralLmTest, FitValidatesInput) {
  NeuralLm lm(10);
  EXPECT_FALSE(lm.Fit({}).ok());
  EXPECT_FALSE(lm.Fit({{42}}).ok());
}

TEST(NeuralLmTest, DistributionSumsToOne) {
  TinyCorpus corpus;
  NeuralLm::Options options;
  options.epochs = 2;
  NeuralLm lm(corpus.vocab.size(), options);
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  auto dist = lm.NextTokenDistribution({corpus.a});
  double sum = 0.0;
  for (double p : dist) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(NeuralLmTest, LearnsDeterministicPattern) {
  TinyCorpus corpus;
  NeuralLm::Options options;
  options.epochs = 30;
  options.context_window = 4;
  options.embed_dim = 8;
  options.hidden_dim = 16;
  NeuralLm lm(corpus.vocab.size(), options);
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  auto dist = lm.NextTokenDistribution({corpus.a});
  EXPECT_GT(dist[static_cast<size_t>(corpus.b)], 0.6);
  EXPECT_LT(lm.last_epoch_loss(), 1.0);
}

TEST(NeuralLmTest, TrainingReducesLoss) {
  TinyCorpus corpus;
  NeuralLm::Options short_run;
  short_run.epochs = 1;
  NeuralLm lm1(corpus.vocab.size(), short_run);
  ASSERT_TRUE(lm1.Fit(corpus.sequences).ok());

  NeuralLm::Options long_run;
  long_run.epochs = 20;
  NeuralLm lm2(corpus.vocab.size(), long_run);
  ASSERT_TRUE(lm2.Fit(corpus.sequences).ok());
  EXPECT_LT(lm2.last_epoch_loss(), lm1.last_epoch_loss());
}

TEST(NeuralLmTest, IdenticalTokensShareOneEmbedding) {
  // The GPT-2-analogue property the Data Semantic Enhancement System
  // exploits: statistics for a token live in ONE embedding row, shared by
  // every occurrence regardless of column of origin.
  NeuralLm lm(10);
  auto e5a = lm.EmbeddingOf(5);
  auto e5b = lm.EmbeddingOf(5);
  EXPECT_EQ(e5a, e5b);
  EXPECT_NE(lm.EmbeddingOf(5), lm.EmbeddingOf(6));
}

TEST(NeuralLmTest, DeterministicGivenSeed) {
  TinyCorpus corpus;
  NeuralLm::Options options;
  options.epochs = 3;
  options.seed = 99;
  NeuralLm lm1(corpus.vocab.size(), options);
  NeuralLm lm2(corpus.vocab.size(), options);
  ASSERT_TRUE(lm1.Fit(corpus.sequences).ok());
  ASSERT_TRUE(lm2.Fit(corpus.sequences).ok());
  EXPECT_EQ(lm1.NextTokenDistribution({corpus.a}),
            lm2.NextTokenDistribution({corpus.a}));
}

TEST(NeuralLmTest, PretrainingWarmStartsFromPrior) {
  TinyCorpus corpus;
  // Prior teaches the pattern; fine-tune with very few epochs.
  NeuralLm::Options options;
  options.epochs = 1;
  options.pretrain_epochs = 25;
  NeuralLm with_prior(corpus.vocab.size(), options);
  ASSERT_TRUE(with_prior.SetPriorCorpus(corpus.sequences).ok());
  ASSERT_TRUE(with_prior.Fit(corpus.sequences).ok());

  NeuralLm::Options no_prior = options;
  no_prior.pretrain_epochs = 0;
  NeuralLm without(corpus.vocab.size(), no_prior);
  ASSERT_TRUE(without.Fit(corpus.sequences).ok());

  EXPECT_LT(with_prior.last_epoch_loss(), without.last_epoch_loss());
}

TEST(NeuralLmTest, DoubleFitFails) {
  TinyCorpus corpus;
  NeuralLm::Options options;
  options.epochs = 1;
  NeuralLm lm(corpus.vocab.size(), options);
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  EXPECT_FALSE(lm.Fit(corpus.sequences).ok());
}

}  // namespace
}  // namespace greater
