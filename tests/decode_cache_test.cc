#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lm/alias_table.h"
#include "lm/decode_cache.h"
#include "lm/neural_lm.h"
#include "lm/ngram_lm.h"
#include "obs/metrics.h"
#include "per_row_reference.h"
#include "synth/great_synthesizer.h"
#include "tabular/table.h"
#include "text/vocabulary.h"

// Global allocation counter for the zero-allocation hit-path test. The
// overrides apply binary-wide; only the delta across the measured loop is
// asserted on.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line so the compiler cannot pair an inlined free() with the
// operator new at a call site (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace greater {
namespace {

// ---------- AliasTable ----------

TEST(AliasTableTest, EmpiricalFrequenciesMatchWeights) {
  std::vector<double> weights = {0.5, 0.0, 1.5, 2.0};
  double total = 4.0;
  AliasTable table;
  table.Build(weights, total);
  ASSERT_EQ(table.size(), weights.size());

  Rng rng(123);
  constexpr int kDraws = 40000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < kDraws; ++i) ++counts[table.Sample(&rng)];

  EXPECT_EQ(counts[1], 0);  // zero-weight bucket must never fire
  for (size_t i = 0; i < weights.size(); ++i) {
    double expected = weights[i] / total;
    double observed = static_cast<double>(counts[i]) / kDraws;
    EXPECT_NEAR(observed, expected, 0.02) << "bucket " << i;
  }
}

// ---------- AllowListInterner ----------

TEST(AllowListInternerTest, CanonicalizesAndAssignsStableIds) {
  AllowListInterner interner;
  AllowListId a = interner.Intern({9, 3, 3, 7});
  AllowListId b = interner.Intern({3, 7, 9});  // same set, already sorted
  AllowListId c = interner.Intern({1, 2});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.list(a), (std::vector<TokenId>{3, 7, 9}));
  EXPECT_EQ(interner.Find({3, 7, 9}), a);
  EXPECT_EQ(interner.Find({3, 7}), kNoAllowList);
  // Re-interning never reassigns.
  EXPECT_EQ(interner.Intern({9, 7, 3}), a);
}

TEST(DecodeCacheTest, TransientIdsAreContentStable) {
  DecodeCache cache{DecodeCacheOptions{}};
  std::vector<TokenId> names1 = {4, 8, 12};
  std::vector<TokenId> names2 = {8, 12};
  AllowListId id1 = cache.InternTransient(names1);
  AllowListId id2 = cache.InternTransient(names2);
  EXPECT_NE(id1, kNoAllowList);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(cache.InternTransient(names1), id1);
  EXPECT_EQ(cache.InternTransient(names2), id2);
}

// ---------- Exact-replay bitwise equality ----------

std::vector<TokenSequence> SmallCorpus() {
  return {
      {5, 6, 7, 8, 9}, {5, 6, 7, 9, 8}, {10, 11, 5, 6}, {7, 8, 10, 11, 5},
      {9, 9, 5, 7},    {6, 10, 8, 5},   {11, 7, 6, 9},  {5, 8, 9, 10, 11},
  };
}

std::vector<TokenSequence> TestContexts() {
  std::vector<TokenSequence> contexts = {
      {},        {5},           {5, 6},          {5, 6, 7},
      {9, 9, 5}, {10, 11, 5, 6}, {7, 8, 10, 11}, {5, 6, 7, 8, 9, 10, 11, 5},
  };
  // Repeat the pool several times so later rounds hit the cache.
  std::vector<TokenSequence> out;
  for (int round = 0; round < 6; ++round) {
    out.insert(out.end(), contexts.begin(), contexts.end());
  }
  return out;
}

void ExpectExactReplayMatchesUncached(const LanguageModel& lm,
                                      double temperature) {
  std::vector<TokenId> candidates = {5, 6, 7, 8, 9, 10, 11};
  DecodeCacheOptions options;  // defaults: enabled, kExactReplay
  DecodeCache cache(options);
  AllowListId allow_id = cache.InternTransient(candidates);
  DecodeWorkspace cached_ws, plain_ws;

  Rng cached_rng(77), plain_rng(77);
  for (const TokenSequence& context : TestContexts()) {
    TokenId cached = cache.SampleRestricted(lm, context, candidates, allow_id,
                                            temperature, &cached_rng,
                                            &cached_ws);
    TokenId plain = lm.SampleNext(context, &plain_rng, temperature,
                                  &candidates, &plain_ws);
    EXPECT_EQ(cached, plain);
  }
  // Both generators consumed the identical number of draws, so their
  // streams are still in lockstep — the strongest replay guarantee.
  EXPECT_EQ(cached_rng.Uniform(), plain_rng.Uniform());
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().uncacheable, 0u);
}

TEST(DecodeCacheTest, ExactReplayMatchesUncachedNGram) {
  NGramLm lm(32);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());
  ExpectExactReplayMatchesUncached(lm, 1.0);
  ExpectExactReplayMatchesUncached(lm, 0.7);
}

TEST(DecodeCacheTest, ExactReplayMatchesUncachedNeural) {
  NeuralLm::Options options;
  options.context_window = 4;
  options.embed_dim = 4;
  options.hidden_dim = 8;
  options.epochs = 2;
  options.pretrain_epochs = 0;
  NeuralLm lm(32, options);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());
  ExpectExactReplayMatchesUncached(lm, 1.0);
  ExpectExactReplayMatchesUncached(lm, 0.7);
}

TEST(DecodeCacheTest, AliasModeDrawsValidTokensDeterministically) {
  NGramLm lm(32);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());
  std::vector<TokenId> candidates = {5, 6, 7, 8, 9, 10, 11};

  DecodeCacheOptions options;
  options.mode = DecodeMode::kAlias;
  auto run = [&]() {
    DecodeCache cache(options);
    AllowListId allow_id = cache.InternTransient(candidates);
    DecodeWorkspace ws;
    Rng rng(42);
    std::vector<TokenId> drawn;
    for (const TokenSequence& context : TestContexts()) {
      TokenId token = cache.SampleRestricted(lm, context, candidates,
                                             allow_id, 1.0, &rng, &ws);
      EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                     token));
      drawn.push_back(token);
    }
    return drawn;
  };
  // Deterministic per seed even though the uniform-consumption pattern
  // differs from the uncached path.
  EXPECT_EQ(run(), run());
}

// ---------- Eviction ----------

TEST(DecodeCacheTest, SecondChanceEvictionBoundsTheCache) {
  NGramLm lm(256);  // unfitted: uniform weights, still cacheable
  std::vector<TokenId> candidates = {100, 101, 102};
  DecodeCacheOptions options;
  options.capacity = 8;
  DecodeCache cache(options);
  AllowListId allow_id = cache.InternTransient(candidates);
  DecodeWorkspace ws;
  Rng rng(9);
  for (TokenId t = 0; t < 100; ++t) {
    TokenSequence context = {t};  // 100 distinct keys
    // A key takes an entry on its second miss.
    for (int sighting = 0; sighting < 2; ++sighting) {
      cache.SampleRestricted(lm, context, candidates, allow_id, 1.0, &rng,
                             &ws);
    }
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.stats().misses, 200u);
  EXPECT_EQ(cache.stats().evictions, 92u);
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(DecodeCacheTest, IndexKeepsResidentKeysReachableUnderEviction) {
  // Every admission past capacity evicts through the open-addressed
  // index. A model of the clock says which keys are resident; each of the
  // last few keys it holds must still be found (a hit).
  NGramLm lm(256);
  std::vector<TokenId> candidates = {100, 101, 102};
  DecodeCacheOptions options;
  options.capacity = 8;
  DecodeCache cache(options);
  AllowListId allow_id = cache.InternTransient(candidates);
  DecodeWorkspace ws;
  Rng rng(21);
  auto draw = [&](TokenId t) {
    TokenSequence context = {t};
    cache.SampleRestricted(lm, context, candidates, allow_id, 1.0, &rng, &ws);
  };
  struct ModelSlot {
    TokenId key;
    bool referenced;
  };
  std::vector<ModelSlot> model;
  size_t hand = 0;
  auto resident = [&](TokenId key) -> ModelSlot* {
    for (ModelSlot& slot : model) {
      if (slot.key == key) return &slot;
    }
    return nullptr;
  };

  constexpr TokenId kKeys = 200;
  size_t checked = 0;
  for (TokenId t = 0; t < kKeys; ++t) {
    draw(t);  // first sighting: scratch
    draw(t);  // second: admitted
    if (model.size() < options.capacity) {
      model.push_back({t, false});
    } else {
      while (model[hand].referenced) {
        model[hand].referenced = false;
        hand = (hand + 1) % model.size();
      }
      model[hand] = {t, false};
      hand = (hand + 1) % model.size();
    }
    for (TokenId back = 1; back <= 3 && back <= t; ++back) {
      ModelSlot* slot = resident(t - back);
      if (slot == nullptr) continue;
      const uint64_t hits = cache.stats().hits;
      draw(t - back);
      EXPECT_EQ(cache.stats().hits, hits + 1) << "key " << t - back;
      slot->referenced = true;
      ++checked;
    }
  }
  EXPECT_GT(checked, size_t{kKeys});
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.stats().admitted, uint64_t{kKeys});
  EXPECT_EQ(cache.stats().evictions, uint64_t{kKeys} - 8u);
}

TEST(DecodeCacheTest, LargeCapacityCostsNothingUntilEntriesArrive) {
  // The index grows with the admitted entries and the capacity is clamped
  // below the scratch slot number, so any bound constructs in O(1) memory
  // and keeps every admitted key reachable as the index doubles.
  NGramLm lm(256);
  std::vector<TokenId> candidates = {100, 101, 102};
  for (size_t capacity : {std::numeric_limits<size_t>::max(),
                          size_t{1} << 40, size_t{1} << 32, size_t{300}}) {
    SCOPED_TRACE(capacity);
    DecodeCacheOptions options;
    options.capacity = capacity;
    DecodeCache cache(options);
    EXPECT_LT(cache.options().capacity, size_t{1} << 31);
    AllowListId allow_id = cache.InternTransient(candidates);
    DecodeWorkspace ws;
    Rng rng(5);
    auto draw = [&](TokenId t) {
      TokenSequence context = {t};
      cache.SampleRestricted(lm, context, candidates, allow_id, 1.0, &rng,
                             &ws);
    };
    constexpr TokenId kKeys = 200;
    for (TokenId t = 0; t < kKeys; ++t) {
      draw(t);  // scratch
      draw(t);  // admitted
    }
    EXPECT_EQ(cache.size(), size_t{kKeys});
    EXPECT_EQ(cache.stats().evictions, 0u);
    for (TokenId t = 0; t < kKeys; ++t) draw(t);
    EXPECT_EQ(cache.stats().hits, uint64_t{kKeys});
  }
}

// ---------- Admission on the second sighting ----------

void ExpectScratchAdmittedAndHitDrawsAgree(DecodeMode mode) {
  NGramLm lm(32);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());
  std::vector<TokenId> candidates = {5, 6, 7, 8, 9, 10, 11};
  DecodeCacheOptions options;
  options.mode = mode;
  DecodeCache cache(options);
  AllowListId allow_id = cache.InternTransient(candidates);
  DecodeWorkspace ws;

  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& hits = registry.GetCounter("lm.cache.hits");
  Counter& misses = registry.GetCounter("lm.cache.misses");
  Counter& admitted = registry.GetCounter("lm.cache.admitted");
  Counter& restricted = registry.GetCounter("lm.sample_next_restricted");
  const uint64_t hits_before = hits.Value();
  const uint64_t misses_before = misses.Value();
  const uint64_t admitted_before = admitted.Value();
  const uint64_t restricted_before = restricted.Value();

  for (const TokenSequence& context :
       {TokenSequence{5, 6}, TokenSequence{9, 9, 5}, TokenSequence{}}) {
    const size_t size_before = cache.size();
    // First sighting (scratch entry), second (admitted), third (hit), each
    // from an equal generator.
    std::vector<TokenId> tokens;
    std::vector<double> next_uniform;
    for (int sighting = 0; sighting < 3; ++sighting) {
      Rng rng(404);
      tokens.push_back(cache.SampleRestricted(lm, context, candidates,
                                              allow_id, 1.0, &rng, &ws));
      next_uniform.push_back(rng.Uniform());
      if (sighting == 0) {
        EXPECT_EQ(cache.size(), size_before) << "a key seen once is not kept";
      }
    }
    EXPECT_EQ(cache.size(), size_before + 1);
    EXPECT_EQ(tokens[0], tokens[1]);
    EXPECT_EQ(tokens[1], tokens[2]);
    EXPECT_EQ(next_uniform[0], next_uniform[1]);
    EXPECT_EQ(next_uniform[1], next_uniform[2]);
  }
  EXPECT_EQ(cache.stats().misses, 6u);
  EXPECT_EQ(cache.stats().admitted, 3u);
  EXPECT_EQ(cache.stats().hits, 3u);

  const uint64_t misses_delta = misses.Value() - misses_before;
  EXPECT_EQ(hits.Value() - hits_before + misses_delta,
            restricted.Value() - restricted_before);
  EXPECT_LE(admitted.Value() - admitted_before, misses_delta);
}

TEST(DecodeCacheTest, ScratchAdmittedAndHitDrawsAgree) {
  {
    SCOPED_TRACE("kExactReplay");
    ExpectScratchAdmittedAndHitDrawsAgree(DecodeMode::kExactReplay);
  }
  {
    SCOPED_TRACE("kAlias");
    ExpectScratchAdmittedAndHitDrawsAgree(DecodeMode::kAlias);
  }
}

// ---------- Zero allocations on the hit path ----------

TEST(DecodeCacheTest, HitPathDoesNotAllocate) {
  NGramLm lm(32);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());
  std::vector<TokenId> candidates = {5, 6, 7, 8, 9, 10, 11};
  DecodeCache cache{DecodeCacheOptions{}};
  AllowListId allow_id = cache.InternTransient(candidates);
  DecodeWorkspace ws;
  Rng rng(31);
  TokenSequence context = {5, 6, 7};
  // Warm: the first draw misses into the scratch entry, the second
  // misses again and admits the key.
  for (int warm = 0; warm < 2; ++warm) {
    cache.SampleRestricted(lm, context, candidates, allow_id, 1.0, &rng, &ws);
  }

  uint64_t sink = 0;
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 512; ++i) {
    sink ^= static_cast<uint64_t>(cache.SampleRestricted(
        lm, context, candidates, allow_id, 1.0, &rng, &ws));
  }
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "cache-hit draws must not touch the heap";
  EXPECT_EQ(cache.stats().hits, 512u);  // all post-warm draws hit
  (void)sink;
}

// ---------- TokenLogProb fast paths ----------

void ExpectTokenLogProbMatchesGather(const LanguageModel& lm) {
  DecodeWorkspace ws;
  for (const TokenSequence& context : TestContexts()) {
    std::vector<double> dist = lm.NextTokenDistribution(context);
    for (TokenId token : {TokenId(5), TokenId(9), TokenId(11),
                          Vocabulary::kEosId}) {
      double expected =
          std::log(std::max(dist[static_cast<size_t>(token)], 1e-300));
      EXPECT_EQ(lm.TokenLogProb(context, token, &ws), expected)
          << "token " << token;
    }
  }
}

TEST(DecodeCacheTest, NGramTokenLogProbMatchesFullDistribution) {
  NGramLm lm(32);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());
  ExpectTokenLogProbMatchesGather(lm);
}

TEST(DecodeCacheTest, NeuralTokenLogProbMatchesFullDistribution) {
  NeuralLm::Options options;
  options.context_window = 4;
  options.embed_dim = 4;
  options.hidden_dim = 8;
  options.epochs = 2;
  options.pretrain_epochs = 0;
  NeuralLm lm(32, options);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());
  ExpectTokenLogProbMatchesGather(lm);
}

TEST(DecodeCacheTest, NeuralHiddenStateCacheIsBitwiseTransparent) {
  NeuralLm::Options options;
  options.context_window = 4;
  options.embed_dim = 4;
  options.hidden_dim = 8;
  options.epochs = 2;
  options.pretrain_epochs = 0;
  NeuralLm lm(32, options);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());

  std::vector<TokenId> candidates = {5, 6, 7, 8, 9, 10, 11};
  DecodeWorkspace cached_ws;
  cached_ws.hidden_cache.set_capacity(64);
  std::vector<double> with_cache, without_cache;
  for (const TokenSequence& context : TestContexts()) {
    lm.NextTokenWeightsRestricted(context, candidates, &cached_ws,
                                  &with_cache);
    lm.NextTokenWeightsRestricted(context, candidates, nullptr,
                                  &without_cache);
    EXPECT_EQ(with_cache, without_cache);
  }
  EXPECT_GT(cached_ws.hidden_cache.hits(), 0u);
}

// ---------- End-to-end through the synthesizer ----------

Table SmallTable() {
  Schema schema({Field("name", ValueType::kString),
                 Field("lunch", ValueType::kInt),
                 Field("device", ValueType::kInt)});
  Table t(schema);
  const char* names[] = {"Grace", "Yin", "Anson", "Mia"};
  Rng rng(5);
  for (int i = 0; i < 48; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(names[i % 4]),
                             Value(rng.UniformInt(1, 2)),
                             Value(rng.UniformInt(1, 3))})
                    .ok());
  }
  return t;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.GetRow(r), b.GetRow(r)) << "row " << r;
  }
}

TEST(DecodeCacheTest, SynthesizerCacheOnEqualsCacheOff) {
  GreatSynthesizer::Options on, off;
  off.decode_cache.enabled = false;
  GreatSynthesizer s_on(on), s_off(off);
  Table train = SmallTable();
  Rng fit1(7), fit2(7);
  ASSERT_TRUE(s_on.Fit(train, &fit1).ok());
  ASSERT_TRUE(s_off.Fit(train, &fit2).ok());

  Rng r1(11), r2(11);
  Table t_on = s_on.Sample(30, &r1).ValueOrDie();
  Table t_off = s_off.Sample(30, &r2).ValueOrDie();
  ExpectTablesEqual(t_on, t_off);
  // Seeded replay: the generators themselves stayed in lockstep.
  EXPECT_EQ(r1.Uniform(), r2.Uniform());
}

TEST(DecodeCacheTest, SynthesizerCacheOnEqualsCacheOffNeuralBackbone) {
  GreatSynthesizer::Options on, off;
  on.backbone = GreatSynthesizer::Backbone::kNeural;
  on.neural.context_window = 4;
  on.neural.embed_dim = 4;
  on.neural.hidden_dim = 8;
  on.neural.epochs = 2;
  on.neural.pretrain_epochs = 0;
  // The deliberately under-trained backbone can exhaust a row's retry
  // budget; lenient policy keeps the run alive, and both sides degrade
  // identically because their Rng streams stay in lockstep.
  on.policy = SamplePolicy::kLenient;
  off = on;
  off.decode_cache.enabled = false;
  GreatSynthesizer s_on(on), s_off(off);
  Table train = SmallTable();
  Rng fit1(7), fit2(7);
  ASSERT_TRUE(s_on.Fit(train, &fit1).ok());
  ASSERT_TRUE(s_off.Fit(train, &fit2).ok());

  Rng r1(13), r2(13);
  Table t_on = s_on.Sample(10, &r1).ValueOrDie();
  Table t_off = s_off.Sample(10, &r2).ValueOrDie();
  ExpectTablesEqual(t_on, t_off);
}

TEST(DecodeCacheTest, ParallelWorkersKeepPrivateCachesDeterministic) {
  GreatSynthesizer::Options on, off;
  on.num_threads = 4;
  off.num_threads = 4;
  off.decode_cache.enabled = false;
  GreatSynthesizer s_on(on), s_off(off);
  Table train = SmallTable();
  Rng fit1(7), fit2(7);
  ASSERT_TRUE(s_on.Fit(train, &fit1).ok());
  ASSERT_TRUE(s_off.Fit(train, &fit2).ok());

  // Per-worker caches never share state, so the parallel determinism
  // contract reduces to the serial one per worker stream: cache-on output
  // equals cache-off output for the same (seed, num_threads).
  Rng r1(19), r2(19);
  Table t_on = s_on.Sample(40, &r1).ValueOrDie();
  Table t_off = s_off.Sample(40, &r2).ValueOrDie();
  ExpectTablesEqual(t_on, t_off);
}

TEST(DecodeCacheTest, CachedCountersReconcile) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& hits = registry.GetCounter("lm.cache.hits");
  Counter& misses = registry.GetCounter("lm.cache.misses");
  Counter& fast = registry.GetCounter("lm.restricted_fast_path");
  Counter& restricted = registry.GetCounter("lm.sample_next_restricted");
  uint64_t hits_before = hits.Value();
  uint64_t misses_before = misses.Value();
  uint64_t fast_before = fast.Value();
  uint64_t restricted_before = restricted.Value();

  GreatSynthesizer synth;
  Table train = SmallTable();
  Rng fit(7);
  ASSERT_TRUE(synth.Fit(train, &fit).ok());
  Rng rng(11);
  ASSERT_TRUE(synth.Sample(10, &rng).ok());

  uint64_t hits_delta = hits.Value() - hits_before;
  uint64_t misses_delta = misses.Value() - misses_before;
  EXPECT_GT(hits_delta, 0u);
  // Every restricted draw was either a cache hit or a miss...
  EXPECT_EQ(hits_delta + misses_delta,
            restricted.Value() - restricted_before);
  // ...and the model was only evaluated on misses.
  EXPECT_EQ(fast.Value() - fast_before, misses_delta);
}

// ---------- Vectorized group draws (SampleMany / DrawResolvedMany) ----------

TEST(AliasTableTest, SampleManyBitwiseEqualsPerLaneSample) {
  std::vector<double> weights = {0.5, 0.0, 1.5, 2.0, 0.25};
  AliasTable table;
  table.Build(weights, 4.25);

  constexpr size_t kLanes = 9;
  // Two identically-seeded rng families: one drawn per-lane, one through
  // the vectorized path. Tokens AND stream positions must match.
  std::vector<Rng> serial_rngs, many_rngs;
  std::vector<Rng*> many_ptrs;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    serial_rngs.emplace_back(1000 + lane * 17);
    many_rngs.emplace_back(1000 + lane * 17);
  }
  for (size_t lane = 0; lane < kLanes; ++lane) {
    many_ptrs.push_back(&many_rngs[lane]);
  }

  for (int round = 0; round < 50; ++round) {
    std::vector<size_t> many(kLanes);
    table.SampleMany(many_ptrs.data(), kLanes, many.data());
    for (size_t lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(table.Sample(&serial_rngs[lane]), many[lane])
          << "round " << round << " lane " << lane;
    }
  }
  for (size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(serial_rngs[lane].Uniform(), many_rngs[lane].Uniform())
        << "lane " << lane << " stream diverged";
  }
}

TEST(AliasTableTest, SampleManyEmpiricalFrequenciesMatchWeights) {
  std::vector<double> weights = {0.5, 0.0, 1.5, 2.0};
  AliasTable table;
  table.Build(weights, 4.0);

  constexpr size_t kLanes = 8;
  constexpr int kRounds = 5000;
  std::vector<Rng> rngs;
  std::vector<Rng*> ptrs;
  for (size_t lane = 0; lane < kLanes; ++lane) rngs.emplace_back(lane + 3);
  for (size_t lane = 0; lane < kLanes; ++lane) ptrs.push_back(&rngs[lane]);

  std::vector<int> counts(weights.size(), 0);
  std::vector<size_t> out(kLanes);
  for (int round = 0; round < kRounds; ++round) {
    table.SampleMany(ptrs.data(), kLanes, out.data());
    for (size_t lane = 0; lane < kLanes; ++lane) ++counts[out[lane]];
  }
  const double draws = static_cast<double>(kLanes) * kRounds;
  EXPECT_EQ(counts[1], 0);
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(counts[i] / draws, weights[i] / 4.0, 0.02) << "bucket " << i;
  }
}

void ExpectDrawResolvedManyMatchesPerLane(DecodeMode mode) {
  NGramLm lm(32);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());
  std::vector<TokenId> candidates = {5, 6, 7, 8, 9, 10, 11};

  DecodeCacheOptions options;
  options.mode = mode;
  DecodeCache cache(options);
  AllowListId allow_id = cache.InternTransient(candidates);
  DecodeWorkspace ws;

  constexpr size_t kLanes = 7;
  std::vector<Rng> serial_rngs, many_rngs;
  std::vector<Rng*> many_ptrs;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    serial_rngs.emplace_back(500 + lane * 31);
    many_rngs.emplace_back(500 + lane * 31);
  }
  for (size_t lane = 0; lane < kLanes; ++lane) {
    many_ptrs.push_back(&many_rngs[lane]);
  }

  std::vector<TokenId> many(kLanes);
  std::vector<size_t> scratch;
  for (const TokenSequence& context : TestContexts()) {
    DecodeCache::ResolvedDist dist = cache.ResolveRestricted(
        lm, context, candidates, allow_id, 1.0, &ws);
    ASSERT_TRUE(dist.cacheable);
    cache.DrawResolvedMany(dist, candidates, many_ptrs.data(), kLanes,
                           many.data(), &scratch);
    for (size_t lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(cache.DrawResolved(dist, candidates, &serial_rngs[lane]),
                many[lane])
          << "lane " << lane;
    }
  }
  for (size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(serial_rngs[lane].Uniform(), many_rngs[lane].Uniform())
        << "lane " << lane << " stream diverged";
  }
}

TEST(DecodeCacheTest, DrawResolvedManyMatchesPerLaneExactReplay) {
  ExpectDrawResolvedManyMatchesPerLane(DecodeMode::kExactReplay);
}

TEST(DecodeCacheTest, DrawResolvedManyMatchesPerLaneAlias) {
  ExpectDrawResolvedManyMatchesPerLane(DecodeMode::kAlias);
}

TEST(DecodeCacheTest, DrawResolvedManyZeroTotalDegradesLikePerLane) {
  // An unfitted LM over candidates it has never seen yields a zero-mass
  // restricted distribution; the vectorized path must degrade to the same
  // uniform-over-candidates draw per lane.
  NGramLm lm(256);
  std::vector<TokenId> candidates = {40, 41, 42};
  DecodeCacheOptions options;
  DecodeCache cache(options);
  AllowListId allow_id = cache.InternTransient(candidates);
  DecodeWorkspace ws;
  DecodeCache::ResolvedDist dist = cache.ResolveRestricted(
      lm, {40, 41}, candidates, allow_id, 1.0, &ws);
  ASSERT_TRUE(dist.cacheable);

  constexpr size_t kLanes = 5;
  std::vector<Rng> serial_rngs, many_rngs;
  std::vector<Rng*> many_ptrs;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    serial_rngs.emplace_back(90 + lane);
    many_rngs.emplace_back(90 + lane);
  }
  for (size_t lane = 0; lane < kLanes; ++lane) {
    many_ptrs.push_back(&many_rngs[lane]);
  }
  std::vector<TokenId> many(kLanes);
  std::vector<size_t> scratch;
  for (int round = 0; round < 20; ++round) {
    cache.DrawResolvedMany(dist, candidates, many_ptrs.data(), kLanes,
                           many.data(), &scratch);
    for (size_t lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(cache.DrawResolved(dist, candidates, &serial_rngs[lane]),
                many[lane]);
    }
  }
}

TEST(DecodeCacheTest, AliasModeBatchedSamplingMatchesSerialEngine) {
  // End-to-end: with kAlias grouped draws running through SampleMany, the
  // engine still reproduces the per-row reference decoder's kAlias output
  // bitwise at every batch size.
  Table train = SmallTable();
  GreatSynthesizer::Options serial_options;
  serial_options.decode_cache.mode = DecodeMode::kAlias;
  GreatSynthesizer serial(serial_options);
  Rng fit_serial(7);
  ASSERT_TRUE(serial.Fit(train, &fit_serial).ok());
  Rng r_serial(11);
  Table reference =
      PerRowReferenceDecoder(serial).Sample(24, &r_serial).ValueOrDie();

  for (size_t batch : {1u, 3u, 8u, 64u}) {
    GreatSynthesizer::Options options = serial_options;
    options.batch_rows = batch;
    GreatSynthesizer batched(options);
    Rng fit_batched(7);
    ASSERT_TRUE(batched.Fit(train, &fit_batched).ok());
    Rng r_batched(11);
    Table t = batched.Sample(24, &r_batched).ValueOrDie();
    SCOPED_TRACE("batch_rows=" + std::to_string(batch));
    ASSERT_EQ(reference.num_rows(), t.num_rows());
    for (size_t r = 0; r < reference.num_rows(); ++r) {
      EXPECT_EQ(reference.GetRow(r), t.GetRow(r)) << "row " << r;
    }
  }
}

}  // namespace
}  // namespace greater
