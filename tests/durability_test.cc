// Durability suite: the artifact container's typed failure taxonomy
// (truncation sweeps, CRC flips, version skew), atomic-write crash
// semantics under injected ckpt.* faults, bitwise Save -> Load -> Sample
// identity for the trained stack, and stage-level pipeline resume.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <limits>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "common/artifact_io.h"
#include "common/checkpoint_store.h"
#include "common/fault.h"
#include "common/rng.h"
#include "crosstable/pipeline.h"
#include "datagen/digix.h"
#include "lm/ngram_lm.h"
#include "obs/metrics.h"
#include "semantic/mapping.h"
#include "stream/csv_ingest.h"
#include "stream/sample_emit.h"
#include "synth/great_synthesizer.h"
#include "synth/relational_synthesizer.h"
#include "synth/streaming_synthesis.h"
#include "tabular/csv.h"
#include "text/vocabulary.h"

// Largest single heap request since the last reset, for the tests that
// assert a hostile length is refused before it is allocated. The
// overrides apply binary-wide.
namespace {
std::atomic<size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t size) {
  size_t largest = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > largest && !g_largest_allocation.compare_exchange_weak(
                               largest, size, std::memory_order_relaxed)) {
  }
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

namespace fs = std::filesystem;

// Fresh scratch directory per test name; wiped up front so reruns start
// clean.
fs::path ScratchDir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) / ("greater_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string Slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Table SmallTable() {
  Schema schema({Field("name", ValueType::kString),
                 Field("lunch", ValueType::kInt),
                 Field("dinner", ValueType::kInt)});
  Table t(schema);
  const char* names[] = {"Grace", "Yin", "Anson"};
  Rng rng(5);
  for (int i = 0; i < 45; ++i) {
    int64_t lunch = rng.UniformInt(1, 2);
    int64_t dinner = rng.Bernoulli(0.8) ? lunch : rng.UniformInt(1, 2);
    EXPECT_TRUE(
        t.AppendRow({Value(names[i % 3]), Value(lunch), Value(dinner)}).ok());
  }
  return t;
}

class DurabilityTest : public testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
};

// ---------- byte codec ----------

TEST(ByteCodecTest, RoundTripsEveryPrimitive) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutBool(true);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-42);
  w.PutF64(-0.0);  // signed zero must survive bitwise
  w.PutString(std::string_view("with,comma\nand newline\0byte", 27));
  std::string payload = std::move(w).Take();

  ByteReader r(payload);
  uint8_t u8;
  bool b;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double f64;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetBool(&b).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetF64(&f64).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_TRUE(b);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(std::signbit(f64));
  EXPECT_EQ(s, std::string("with,comma\nand newline\0byte", 27u));
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(ByteCodecTest, EveryTruncationFailsTyped) {
  ByteWriter w;
  w.PutU64(7);
  w.PutString("abc");
  w.PutF64(1.5);
  std::string payload = std::move(w).Take();
  for (size_t len = 0; len < payload.size(); ++len) {
    ByteReader r(std::string_view(payload).substr(0, len));
    uint64_t u64;
    std::string s;
    double f64;
    Status status = r.GetU64(&u64);
    if (status.ok()) status = r.GetString(&s);
    if (status.ok()) status = r.GetF64(&f64);
    ASSERT_FALSE(status.ok()) << "length " << len;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "length " << len;
  }
}

// ---------- artifact container ----------

std::string SampleDoc() {
  ArtifactWriter doc("greater.test_artifact", 3);
  doc.AddChunk("alpha", "payload one");
  doc.AddChunk("beta", std::string("\x00\x01\x02", 3));
  return doc.Finish();
}

TEST(ArtifactTest, RoundTripsChunksAndMetadata) {
  ArtifactReader doc =
      ArtifactReader::Parse(SampleDoc(), "greater.test_artifact", 3)
          .ValueOrDie();
  EXPECT_EQ(doc.kind(), "greater.test_artifact");
  EXPECT_EQ(doc.version(), 3u);
  EXPECT_TRUE(doc.HasChunk("alpha"));
  EXPECT_FALSE(doc.HasChunk("gamma"));
  EXPECT_EQ(doc.Chunk("alpha").ValueOrDie(), "payload one");
  EXPECT_EQ(doc.Chunk("beta").ValueOrDie(), std::string("\x00\x01\x02", 3));
  EXPECT_EQ(doc.Chunk("gamma").status().code(), StatusCode::kNotFound);
}

TEST(ArtifactTest, KindAndVersionMismatchesFailPrecondition) {
  std::string bytes = SampleDoc();
  auto wrong_kind = ArtifactReader::Parse(bytes, "greater.other", 3);
  ASSERT_FALSE(wrong_kind.ok());
  EXPECT_EQ(wrong_kind.status().code(), StatusCode::kFailedPrecondition);
  auto too_new = ArtifactReader::Parse(bytes, "greater.test_artifact", 2);
  ASSERT_FALSE(too_new.ok());
  EXPECT_EQ(too_new.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ArtifactTest, EveryTruncationFailsTypedNeverCrashes) {
  // The crash-mid-write model: a torn write can persist any prefix.
  // Whatever the cut point — mid-magic, mid-header, mid-chunk, mid-CRC —
  // parsing must fail with kDataLoss, never crash or half-succeed.
  std::string bytes = SampleDoc();
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto result =
        ArtifactReader::Parse(bytes.substr(0, len), "greater.test_artifact",
                              3);
    ASSERT_FALSE(result.ok()) << "prefix length " << len;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "prefix length " << len << ": " << result.status().ToString();
  }
}

TEST(ArtifactTest, EverySingleBitFlipIsDetected) {
  std::string bytes = SampleDoc();
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    auto result =
        ArtifactReader::Parse(corrupt, "greater.test_artifact", 3);
    EXPECT_FALSE(result.ok()) << "flipped byte " << i;
  }
}

TEST(ArtifactTest, TrailingGarbageIsDataLoss) {
  auto result = ArtifactReader::Parse(SampleDoc() + "x",
                                      "greater.test_artifact", 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(ArtifactTest, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  // Chaining property used by incremental writers.
  EXPECT_EQ(Crc32("6789", Crc32("12345")), Crc32("123456789"));
}

// ---------- atomic writes under injected faults ----------

TEST_F(DurabilityTest, AtomicWriteReplacesOrPreservesNeverTears) {
  fs::path dir = ScratchDir("atomic");
  fs::path target = dir / "data.bin";
  ASSERT_TRUE(AtomicWriteFile(target.string(), "generation one").ok());
  EXPECT_EQ(Slurp(target), "generation one");

  // A fired ckpt.write fault models a crash before any filesystem
  // mutation: the previous generation must survive untouched.
  {
    FaultSpec spec;
    spec.code = StatusCode::kResourceExhausted;
    spec.message = "disk full";
    ScopedFault fault("ckpt.write", spec);
    Status status = AtomicWriteFile(target.string(), "generation two");
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(Slurp(target), "generation one");

  ASSERT_TRUE(AtomicWriteFile(target.string(), "generation two").ok());
  EXPECT_EQ(Slurp(target), "generation two");
}

TEST_F(DurabilityTest, CsvWriteGoesThroughAtomicWriterRegression) {
  // Satellite regression: WriteCsvFile routes through AtomicWriteFile, so
  // an injected write fault leaves the previous CSV intact instead of a
  // truncated half-file.
  fs::path dir = ScratchDir("csv_atomic");
  fs::path target = dir / "out.csv";
  Table t = SmallTable();
  ASSERT_TRUE(WriteCsvFile(t, target.string()).ok());
  std::string before = Slurp(target);
  ASSERT_FALSE(before.empty());

  FaultSpec spec;
  spec.code = StatusCode::kDataLoss;
  spec.message = "torn write";
  ScopedFault fault("ckpt.write", spec);
  Status status = WriteCsvFile(t, target.string());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(Slurp(target), before);
}

TEST_F(DurabilityTest, ReadFaultSurfacesThroughLoad) {
  fs::path dir = ScratchDir("read_fault");
  fs::path target = dir / "model.bin";
  GreatSynthesizer synth;
  Rng rng(3);
  ASSERT_TRUE(synth.Fit(SmallTable(), &rng).ok());
  ASSERT_TRUE(synth.Save(target.string()).ok());

  FaultSpec spec;
  spec.code = StatusCode::kDataLoss;
  spec.message = "bit rot";
  ScopedFault fault("ckpt.read", spec);
  GreatSynthesizer loaded;
  Status status = loaded.Load(target.string());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(loaded.fitted());
}

// ---------- mapping system: adversarial round-trips ----------

TEST(MappingSerdeTest, AdversarialValuesRoundTripExactly) {
  // Property-style sweep over the strings the legacy CSV format mangled:
  // separators, quotes, newlines, empties, NUL bytes, and doubles whose
  // decimal rendering is lossy.
  std::vector<std::string> nasty = {
      "",        ",",          "\n",           "\r\n",     "\"quoted\"",
      "a,b,c",   "line\nfeed", "tab\tstop",    " leading", "trailing ",
      "=escape", "\\back",     std::string("nul\0byte", 8)};
  std::vector<ColumnMapping> mappings;
  ColumnMapping strings;
  strings.column = "labels";
  strings.original_type = ValueType::kString;
  for (size_t i = 0; i < nasty.size(); ++i) {
    strings.forward[Value(nasty[i])] =
        Value("replacement " + std::to_string(i) + " " + nasty[i]);
  }
  mappings.push_back(strings);
  ColumnMapping numbers;
  numbers.column = "codes";
  numbers.original_type = ValueType::kDouble;
  numbers.forward[Value(0.1)] = Value("point one");
  numbers.forward[Value(1.0 / 3.0)] = Value("a third");
  numbers.forward[Value(-0.0)] = Value("negative zero");
  mappings.push_back(numbers);
  ColumnMapping ints;
  ints.column = "ids";
  ints.original_type = ValueType::kInt;
  ints.forward[Value(static_cast<int64_t>(-7))] = Value("minus seven");
  mappings.push_back(ints);

  MappingSystem original = MappingSystem::Make(std::move(mappings)).ValueOrDie();
  MappingSystem decoded =
      MappingSystem::Deserialize(original.Serialize()).ValueOrDie();

  ASSERT_EQ(decoded.mappings().size(), original.mappings().size());
  for (size_t m = 0; m < original.mappings().size(); ++m) {
    const ColumnMapping& a = original.mappings()[m];
    const ColumnMapping& b = decoded.mappings()[m];
    EXPECT_EQ(a.column, b.column);
    EXPECT_EQ(a.original_type, b.original_type);
    ASSERT_EQ(a.forward.size(), b.forward.size());
    auto ita = a.forward.begin();
    auto itb = b.forward.begin();
    for (; ita != a.forward.end(); ++ita, ++itb) {
      EXPECT_TRUE(ita->first == itb->first);
      EXPECT_TRUE(ita->second == itb->second);
    }
  }
  // Serialization is deterministic: equal systems, equal bytes.
  EXPECT_EQ(original.Serialize(), decoded.Serialize());
}

TEST(MappingSerdeTest, LegacyTextFormatStillParses) {
  // Pre-binary releases stored a CSV-ish text table; Deserialize sniffs
  // the magic and must keep accepting the old form.
  std::string legacy =
      "column,original_type,original,replacement\n"
      "genre,string,RPG,Coffee\n"
      "genre,string,MOBA,Tea\n";
  MappingSystem decoded = MappingSystem::Deserialize(legacy).ValueOrDie();
  ASSERT_EQ(decoded.mappings().size(), 1u);
  EXPECT_EQ(decoded.mappings()[0].column, "genre");
  EXPECT_EQ(decoded.mappings()[0].forward.size(), 2u);
}

TEST_F(DurabilityTest, MappingSaveLoadFileRoundTrip) {
  fs::path dir = ScratchDir("mapping");
  ColumnMapping m;
  m.column = "genre";
  m.original_type = ValueType::kString;
  m.forward[Value("RPG")] = Value("Coffee, black\nno sugar");
  MappingSystem original = MappingSystem::Make({m}).ValueOrDie();
  fs::path target = dir / "mapping.bin";
  ASSERT_TRUE(original.Save(target.string()).ok());
  MappingSystem loaded;
  ASSERT_TRUE(loaded.Load(target.string()).ok());
  EXPECT_EQ(loaded.Serialize(), original.Serialize());
}

// ---------- trained-stack round trips ----------

TEST(VocabularySerdeTest, RoundTripPreservesIdsExactly) {
  Vocabulary vocab;
  TokenId a = vocab.AddToken("alpha");
  TokenId b = vocab.AddToken("beta, with comma");
  Vocabulary loaded;
  ASSERT_TRUE(loaded.DeserializeBinary(vocab.SerializeBinary()).ok());
  EXPECT_EQ(loaded.size(), vocab.size());
  EXPECT_EQ(loaded.IdOf("alpha"), a);
  EXPECT_EQ(loaded.IdOf("beta, with comma"), b);
  EXPECT_EQ(loaded.SerializeBinary(), vocab.SerializeBinary());
}

template <typename MakeOptions>
void ExpectBitwiseSaveLoadSample(MakeOptions make_options,
                                 const std::string& tag) {
  fs::path dir = ScratchDir("bundle_" + tag);
  GreatSynthesizer::Options options = make_options();
  GreatSynthesizer original(options);
  Rng fit_rng(11);
  ASSERT_TRUE(original.Fit(SmallTable(), &fit_rng).ok());

  fs::path target = dir / "model.bin";
  ASSERT_TRUE(original.Save(target.string()).ok());
  GreatSynthesizer loaded;
  ASSERT_TRUE(loaded.Load(target.string()).ok());
  ASSERT_TRUE(loaded.fitted());

  // The acceptance bar: the loaded synthesizer draws the exact seeded
  // sample stream of the in-memory one.
  Rng rng_a(99), rng_b(99);
  Table sample_a = original.Sample(25, &rng_a).ValueOrDie();
  Table sample_b = loaded.Sample(25, &rng_b).ValueOrDie();
  EXPECT_TRUE(sample_a == sample_b) << tag;
  EXPECT_EQ(WriteCsvString(sample_a), WriteCsvString(sample_b)) << tag;
  // And re-serialization is stable: Save(Load(x)) == x.
  EXPECT_EQ(loaded.SerializeBinary().ValueOrDie(),
            original.SerializeBinary().ValueOrDie())
      << tag;
}

TEST_F(DurabilityTest, NGramSynthesizerSaveLoadSampleBitwise) {
  ExpectBitwiseSaveLoadSample(
      [] {
        GreatSynthesizer::Options options;
        options.backbone = GreatSynthesizer::Backbone::kNGram;
        options.prior_corpus = {"the lunch was type one",
                                "dinner follows lunch"};
        return options;
      },
      "ngram");
}

// One hand-built n-gram payload: vocab 10 unless given, order 2, fitted. Level 0 holds
// the empty context, level 1 the contexts in `contexts`; each context is
// {ids..., total, {(token, count)...}}.
struct CraftedContext {
  std::vector<uint32_t> ids;
  double total = 0.0;
  std::vector<std::pair<uint32_t, double>> counts;
};

std::string CraftNGramModel(uint64_t level1_entries,
                            const std::vector<CraftedContext>& contexts,
                            uint32_t level0_counts = 1,
                            uint64_t vocab_size = 10) {
  ByteWriter w;
  w.PutU64(vocab_size);
  w.PutU64(2);     // order
  w.PutF64(0.0);   // prior weight
  w.PutBool(true);
  w.PutU32(2);     // levels
  w.PutU64(1);     // level 0: the empty context
  w.PutU32(0);
  w.PutF64(4.0);
  w.PutU32(level0_counts);
  w.PutU32(5);
  w.PutF64(4.0);
  w.PutU64(level1_entries);
  for (const CraftedContext& context : contexts) {
    w.PutU32(static_cast<uint32_t>(context.ids.size()));
    for (uint32_t id : context.ids) w.PutU32(id);
    w.PutF64(context.total);
    w.PutU32(static_cast<uint32_t>(context.counts.size()));
    for (const auto& [token, count] : context.counts) {
      w.PutU32(token);
      w.PutF64(count);
    }
  }
  ArtifactWriter doc("greater.ngram_lm", 1);
  doc.AddChunk("model", std::move(w).Take());
  return doc.Finish();
}

TEST(NGramSerdeTest, HostileLengthsAndOrderingFailTypedNeverThrow) {
  const CraftedContext a{{4}, 2.0, {{5, 1.0}, {6, 1.0}}};
  const CraftedContext b{{7}, 2.0, {{5, 2.0}}};
  {
    // The well-formed payload loads and evaluates.
    NGramLm lm(1);
    ASSERT_TRUE(lm.DeserializeBinary(CraftNGramModel(2, {a, b})).ok());
    EXPECT_EQ(lm.vocab_size(), 10u);
    EXPECT_GT(lm.NextTokenDistribution({4})[5], 0.1);
  }
  const double nan = std::nan("");
  const struct {
    const char* what;
    std::string bytes;
  } cases[] = {
      {"2^61 contexts", CraftNGramModel(uint64_t{1} << 61, {a, b})},
      {"2^32-1 counts", CraftNGramModel(2, {a, b}, 0xffffffffu)},
      {"unsorted contexts", CraftNGramModel(2, {b, a})},
      {"duplicate contexts", CraftNGramModel(2, {a, a})},
      {"unsorted tokens", CraftNGramModel(1, {{{4}, 2.0, {{6, 1.0}, {5, 1.0}}}})},
      {"duplicate tokens", CraftNGramModel(1, {{{4}, 2.0, {{5, 1.0}, {5, 1.0}}}})},
      {"NaN count", CraftNGramModel(1, {{{4}, 2.0, {{5, nan}}}})},
      {"negative count", CraftNGramModel(1, {{{4}, 2.0, {{5, -1.0}}}})},
      {"infinite total", CraftNGramModel(1, {{{4}, HUGE_VAL, {{5, 1.0}}}})},
      {"context length off its level", CraftNGramModel(1, {{{4, 4}, 2.0, {}}})},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    NGramLm lm(3);
    Status status;
    EXPECT_NO_THROW(status = lm.DeserializeBinary(c.bytes));
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
    EXPECT_EQ(lm.vocab_size(), 3u);  // a failed load leaves the model as is
    EXPECT_FALSE(lm.fitted());
  }
}

TEST_F(DurabilityTest, NGramVocabularyOffTheEncoderFailsTypedUnallocated) {
  // A bundle whose n-gram header claims a vocabulary other than the
  // encoder's is corrupt. The loader must say so before sizing anything by
  // the claim: the unigram floor alone would be 8 bytes per token id.
  GreatSynthesizer synth;
  Rng rng(3);
  ASSERT_TRUE(synth.Fit(SmallTable(), &rng).ok());
  const std::string bytes = synth.SerializeBinary().ValueOrDie();
  ArtifactReader doc = ArtifactReader::Parse(bytes, "greater.great_synthesizer",
                                             2)
                           .ValueOrDie();
  const CraftedContext a{{4}, 2.0, {{5, 1.0}, {6, 1.0}}};
  // The small mismatch goes first: if the check were missing it would
  // load, and the ASSERT below stops before the huge claim is tried.
  const uint64_t encoder_vocab = synth.encoder().vocab().size();
  for (uint64_t vocab_size :
       {encoder_vocab + 1, uint64_t{std::numeric_limits<TokenId>::max()}}) {
    SCOPED_TRACE(vocab_size);
    ArtifactWriter forged(doc.kind(), doc.version());
    for (const std::string& name : doc.chunk_names()) {
      std::string payload(doc.Chunk(name).ValueOrDie());
      if (name == "lm") payload = CraftNGramModel(1, {a}, 1, vocab_size);
      forged.AddChunk(name, std::move(payload));
    }
    const std::string forged_bytes = forged.Finish();
    GreatSynthesizer loaded;
    Status status;
    g_largest_allocation.store(0, std::memory_order_relaxed);
    EXPECT_NO_THROW(status = loaded.DeserializeBinary(forged_bytes));
    ASSERT_EQ(status.code(), StatusCode::kDataLoss) << status;
    EXPECT_LT(g_largest_allocation.load(std::memory_order_relaxed),
              size_t{1} << 24);
    EXPECT_FALSE(loaded.fitted());
  }
  // The n-gram loader alone, told the expected size; small claim first.
  NGramLm lm(3);
  ASSERT_EQ(lm.DeserializeBinary(CraftNGramModel(1, {a}, 1, 11), 10).code(),
            StatusCode::kDataLoss);
  Status status = lm.DeserializeBinary(
      CraftNGramModel(1, {a}, 1, std::numeric_limits<TokenId>::max()), 10);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_EQ(lm.vocab_size(), 3u);
  EXPECT_TRUE(lm.DeserializeBinary(CraftNGramModel(1, {a}), 10).ok());
}

TEST_F(DurabilityTest, NeuralSynthesizerSaveLoadSampleBitwise) {
  ExpectBitwiseSaveLoadSample(
      [] {
        GreatSynthesizer::Options options;
        options.backbone = GreatSynthesizer::Backbone::kNeural;
        options.neural.epochs = 2;
        options.neural.embed_dim = 8;
        options.neural.hidden_dim = 12;
        return options;
      },
      "neural");
}

TEST_F(DurabilityTest, UnfittedSynthesizerRefusesToSerialize) {
  GreatSynthesizer synth;
  auto result = synth.SerializeBinary();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DurabilityTest, SynthesizerBundleTruncationSweepFailsTyped) {
  // Crash-mid-write against the real bundle: every prefix of the saved
  // file must load as a typed corruption error, and the target object
  // must stay unfitted (no partial state).
  GreatSynthesizer synth;
  Rng rng(3);
  ASSERT_TRUE(synth.Fit(SmallTable(), &rng).ok());
  std::string bytes = synth.SerializeBinary().ValueOrDie();
  fs::path dir = ScratchDir("truncation");
  fs::path target = dir / "torn.bin";
  // A full byte-by-byte sweep is slow on a multi-KB bundle; cut at every
  // boundary in the header region and then at a stride, plus the tail.
  std::vector<size_t> cuts;
  for (size_t i = 0; i < std::min<size_t>(bytes.size(), 64); ++i) {
    cuts.push_back(i);
  }
  for (size_t i = 64; i < bytes.size(); i += 41) cuts.push_back(i);
  cuts.push_back(bytes.size() - 1);
  for (size_t len : cuts) {
    Spit(target, bytes.substr(0, len));
    GreatSynthesizer loaded;
    Status status = loaded.Load(target.string());
    ASSERT_FALSE(status.ok()) << "prefix length " << len;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << "prefix length " << len << ": " << status.ToString();
    EXPECT_FALSE(loaded.fitted()) << "prefix length " << len;
  }
}

TEST_F(DurabilityTest, RelationalSynthesizerSaveLoadSampleBitwise) {
  // One-row-per-key parent with a multi-visit child, as Fit requires.
  Table parent(Schema({Field("id", ValueType::kInt),
                       Field("gender", ValueType::kInt),
                       Field("age", ValueType::kInt)}));
  Table child(Schema({Field("id", ValueType::kInt),
                      Field("item", ValueType::kInt)}));
  Rng data_rng(53);
  for (int64_t id = 0; id < 30; ++id) {
    int64_t gender = data_rng.UniformInt(2, 3);
    int64_t age = data_rng.UniformInt(2, 5);
    ASSERT_TRUE(
        parent.AppendRow({Value(id), Value(gender), Value(age)}).ok());
    int64_t visits = data_rng.UniformInt(1, 4);
    for (int64_t v = 0; v < visits; ++v) {
      int64_t item = data_rng.Bernoulli(0.7) ? age : data_rng.UniformInt(2, 5);
      ASSERT_TRUE(child.AppendRow({Value(id), Value(item)}).ok());
    }
  }

  RelationalSynthesizer::Options options;
  options.parent.encoder.permutations_per_row = 1;
  options.child.encoder.permutations_per_row = 1;
  RelationalSynthesizer original(options);
  Rng fit_rng(7);
  ASSERT_TRUE(original.Fit(parent, child, "id", &fit_rng).ok());

  fs::path dir = ScratchDir("relational");
  fs::path target = dir / "pair.bin";
  ASSERT_TRUE(original.Save(target.string()).ok());
  RelationalSynthesizer loaded;
  ASSERT_TRUE(loaded.Load(target.string()).ok());
  ASSERT_TRUE(loaded.fitted());
  EXPECT_EQ(loaded.child_counts(), original.child_counts());

  Rng rng_a(123), rng_b(123);
  RelationalSample sample_a = original.Sample(10, &rng_a).ValueOrDie();
  RelationalSample sample_b = loaded.Sample(10, &rng_b).ValueOrDie();
  EXPECT_TRUE(sample_a.parent == sample_b.parent);
  EXPECT_TRUE(sample_a.child == sample_b.child);
}

// ---------- pipeline stage resume ----------

class PipelineResumeTest : public DurabilityTest {
 protected:
  static void SetUpTestSuite() {
    Rng rng(42);
    DigixOptions options;
    options.num_users = 40;
    DigixGenerator gen(options);
    data_ = new DigixDataset(gen.Generate(&rng).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static PipelineOptions FastOptions(const fs::path& ckpt_dir) {
    PipelineOptions options;
    options.fusion = FusionMethod::kGreaterMedianThreshold;
    options.semantic = SemanticMode::kDifferentiability;
    options.synth.encoder.permutations_per_row = 1;
    options.checkpoint_dir = ckpt_dir.string();
    return options;
  }

  static PipelineResult RunOnce(const PipelineOptions& options,
                                uint64_t seed) {
    MultiTablePipeline pipeline(options);
    Rng rng(seed);
    return pipeline.Run(data_->ads, data_->feeds, "user_id", &rng)
        .ValueOrDie();
  }

  static DigixDataset* data_;
};

DigixDataset* PipelineResumeTest::data_ = nullptr;

TEST_F(PipelineResumeTest, WarmResumeIsByteIdenticalAndHitsEveryStage) {
  fs::path dir = ScratchDir("resume_warm");
  PipelineOptions options = FastOptions(dir);
  Counter& hits = MetricsRegistry::Global().GetCounter("ckpt.stage_hits");
  Counter& stores =
      MetricsRegistry::Global().GetCounter("ckpt.stage_stores");

  uint64_t stores_before = stores.Value();
  PipelineResult cold = RunOnce(options, 7);
  EXPECT_EQ(stores.Value() - stores_before, 4u)
      << "prepare/fuse/fit/sample should each persist";

  uint64_t hits_before = hits.Value();
  PipelineResult warm = RunOnce(options, 7);
  EXPECT_EQ(hits.Value() - hits_before, 4u);

  EXPECT_TRUE(cold.synthetic_flat == warm.synthetic_flat);
  EXPECT_TRUE(cold.synthetic_parent == warm.synthetic_parent);
  EXPECT_EQ(WriteCsvString(cold.synthetic_flat),
            WriteCsvString(warm.synthetic_flat));
  EXPECT_EQ(cold.sample_report.rows_requested,
            warm.sample_report.rows_requested);
  EXPECT_EQ(cold.flattened_rows, warm.flattened_rows);
  EXPECT_EQ(cold.independence.independent, warm.independence.independent);
}

TEST_F(PipelineResumeTest, CheckpointedRunMatchesUncheckpointedRun) {
  // Enabling checkpointing must not perturb the output stream at all.
  fs::path dir = ScratchDir("resume_vs_plain");
  PipelineOptions with = FastOptions(dir);
  PipelineOptions without = FastOptions(dir);
  without.checkpoint_dir.clear();
  PipelineResult a = RunOnce(without, 7);
  PipelineResult b = RunOnce(with, 7);
  EXPECT_TRUE(a.synthetic_flat == b.synthetic_flat);
  EXPECT_TRUE(a.synthetic_parent == b.synthetic_parent);
}

TEST_F(PipelineResumeTest, PartialResumeAfterLostSampleStage) {
  // Simulates a crash after fit but before the sample checkpoint landed:
  // the re-run loads prepare/fuse/fit and recomputes sampling only,
  // producing the identical output.
  fs::path dir = ScratchDir("resume_partial");
  PipelineOptions options = FastOptions(dir);
  PipelineResult cold = RunOnce(options, 7);

  bool removed = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("stage.sample.", 0) == 0) {
      fs::remove(entry.path());
      removed = true;
    }
  }
  ASSERT_TRUE(removed) << "expected a stage.sample.* checkpoint in " << dir;

  Counter& hits = MetricsRegistry::Global().GetCounter("ckpt.stage_hits");
  Counter& misses =
      MetricsRegistry::Global().GetCounter("ckpt.stage_misses");
  uint64_t hits_before = hits.Value();
  uint64_t misses_before = misses.Value();
  PipelineResult resumed = RunOnce(options, 7);
  EXPECT_EQ(hits.Value() - hits_before, 3u);
  EXPECT_EQ(misses.Value() - misses_before, 1u);
  EXPECT_TRUE(cold.synthetic_flat == resumed.synthetic_flat);
}

TEST_F(PipelineResumeTest, CorruptCheckpointDegradesToRecompute) {
  fs::path dir = ScratchDir("resume_corrupt");
  PipelineOptions options = FastOptions(dir);
  PipelineResult cold = RunOnce(options, 7);

  // Flip a byte in the middle of every checkpoint file.
  size_t corrupted = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string bytes = Slurp(entry.path());
    ASSERT_GT(bytes.size(), 32u);
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
    Spit(entry.path(), bytes);
    ++corrupted;
  }
  ASSERT_EQ(corrupted, 4u);

  Counter& corrupt =
      MetricsRegistry::Global().GetCounter("ckpt.stage_corrupt");
  uint64_t corrupt_before = corrupt.Value();
  PipelineResult resumed = RunOnce(options, 7);
  EXPECT_EQ(corrupt.Value() - corrupt_before, 4u);
  EXPECT_TRUE(cold.synthetic_flat == resumed.synthetic_flat);
}

TEST_F(PipelineResumeTest, WriteFaultDuringRunIsNonFatal) {
  // A crash while persisting a checkpoint must neither fail the run nor
  // poison the next one: the armed ckpt.write fault kills the first two
  // stage stores, the run completes, and the re-run recomputes the lost
  // stages to the identical result.
  fs::path dir = ScratchDir("resume_write_fault");
  PipelineOptions options = FastOptions(dir);
  Counter& store_failures =
      MetricsRegistry::Global().GetCounter("ckpt.stage_store_failures");
  uint64_t failures_before = store_failures.Value();
  PipelineResult cold;
  {
    FaultSpec spec;
    spec.code = StatusCode::kResourceExhausted;
    spec.message = "simulated crash during checkpoint write";
    spec.max_fires = 2;
    ScopedFault fault("ckpt.write", spec);
    cold = RunOnce(options, 7);
  }
  EXPECT_EQ(store_failures.Value() - failures_before, 2u);

  PipelineResult resumed = RunOnce(options, 7);
  EXPECT_TRUE(cold.synthetic_flat == resumed.synthetic_flat);
}

TEST_F(PipelineResumeTest, ChangedConfigurationMissesEveryKey) {
  fs::path dir = ScratchDir("resume_config");
  PipelineOptions options = FastOptions(dir);
  RunOnce(options, 7);

  Counter& hits = MetricsRegistry::Global().GetCounter("ckpt.stage_hits");
  uint64_t hits_before = hits.Value();
  // A different seed changes the starting RNG state: nothing may be
  // reused, by construction of the fingerprint chain.
  RunOnce(options, 8);
  EXPECT_EQ(hits.Value() - hits_before, 0u);

  hits_before = hits.Value();
  PipelineOptions hotter = options;
  hotter.synth.temperature = 1.25;
  RunOnce(hotter, 7);
  EXPECT_EQ(hits.Value() - hits_before, 0u);
}

TEST_F(PipelineResumeTest, DerecPathResumesTooAndStaysIdentical) {
  fs::path dir = ScratchDir("resume_derec");
  PipelineOptions options = FastOptions(dir);
  options.fusion = FusionMethod::kDerecIndependent;
  Counter& stores =
      MetricsRegistry::Global().GetCounter("ckpt.stage_stores");
  uint64_t stores_before = stores.Value();
  PipelineResult cold = RunOnce(options, 7);
  EXPECT_EQ(stores.Value() - stores_before, 3u)
      << "DEREC checkpoints prepare/fit/sample (no fuse stage)";
  PipelineResult warm = RunOnce(options, 7);
  EXPECT_TRUE(cold.synthetic_flat == warm.synthetic_flat);
  EXPECT_TRUE(cold.synthetic_parent == warm.synthetic_parent);
}

// ---------- undecodable checkpoint documents ----------
//
// A checkpoint whose container is valid (right kind and version, every
// CRC good) but whose payload its grain cannot decode is corrupt like any
// other: the grain recomputes, the output matches a cold run, the scope's
// corrupt counter moves by one, the grain is not counted as a hit, every
// probe counts once as a hit or a miss, nothing throws, and no allocation
// is sized by the hostile payload.

// Hostile rewrites of a stored document, by mutation name: a missing
// chunk, truncated payloads, spliced payloads, random bytes, and — one
// rewrite per chunk, so every decoder meets it — the leading count,
// length or magic of a payload inflated toward 2^64. `opaque` names the
// chunk, if any, that leads with a plain value (free text, a row tally)
// instead; any value decodes there, so it gets no inflated rewrite.
std::vector<std::pair<std::string, std::string>> HostileRewrites(
    const std::string& stored, std::string_view opaque) {
  ArtifactReader doc =
      ArtifactReader::Parse(stored, "", CheckpointStore::kVersion)
          .ValueOrDie();
  const std::vector<std::string>& names = doc.chunk_names();
  std::vector<std::string> payloads;
  for (const std::string& name : names) {
    payloads.emplace_back(doc.Chunk(name).ValueOrDie());
  }
  auto rebuild = [&](const std::vector<std::string>& chunks, size_t first) {
    ArtifactWriter writer(doc.kind(), doc.version());
    for (size_t i = first; i < chunks.size(); ++i) {
      writer.AddChunk(names[i], chunks[i]);
    }
    return writer.Finish();
  };
  std::vector<std::string> truncated, spliced = payloads, noise;
  Rng rng(99);
  for (const std::string& payload : payloads) {
    truncated.push_back(payload.substr(0, payload.size() / 2));
    std::string random(payload.size(), '\0');
    for (char& c : random) c = static_cast<char>(rng.UniformInt(0, 255));
    noise.push_back(std::move(random));
  }
  if (spliced.size() > 1) {
    std::swap(spliced.front(), spliced.back());
  } else {
    const std::string& only = payloads.front();
    spliced.front() = only.substr(only.size() / 2) +
                      only.substr(0, only.size() / 2);
  }
  std::vector<std::pair<std::string, std::string>> rewrites = {
      {"missing chunk", rebuild(payloads, 1)},
      {"truncated payload", rebuild(truncated, 0)},
      {"spliced payload", rebuild(spliced, 0)},
      {"random bytes", rebuild(noise, 0)}};
  for (size_t i = 0; i < payloads.size(); ++i) {
    if (names[i] == opaque) continue;
    std::vector<std::string> inflated = payloads;
    for (size_t b = 0; b < std::min<size_t>(8, inflated[i].size()); ++b) {
      inflated[i][b] = static_cast<char>(0xff);
    }
    rewrites.emplace_back("inflated length in '" + names[i] + "'",
                          rebuild(inflated, 0));
  }
  return rewrites;
}

// The one file in `dir` whose name starts with `prefix`.
fs::path GrainFile(const fs::path& dir, const std::string& prefix) {
  std::vector<fs::path> found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      found.push_back(entry.path());
    }
  }
  EXPECT_EQ(found.size(), 1u) << prefix << " in " << dir;
  return found.empty() ? fs::path() : found.front();
}

// Replaces `file` with each hostile rewrite of its document in turn and
// reruns. `rerun` returns the run's output bytes; `probes` is how many
// grains of the store scope behind `counter_prefix` it looks up.
void ExpectEachRewriteRecomputes(
    const fs::path& file, std::string_view opaque,
    const std::string& counter_prefix, uint64_t probes,
    const std::string& cold,
    const std::function<Result<std::string>()>& rerun) {
  ASSERT_FALSE(file.empty());
  const std::string stored = Slurp(file);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  Counter& hits = metrics.GetCounter(counter_prefix + "hits");
  Counter& misses = metrics.GetCounter(counter_prefix + "misses");
  Counter& corrupt = metrics.GetCounter(counter_prefix + "corrupt");
  for (const auto& [mutation, bytes] : HostileRewrites(stored, opaque)) {
    SCOPED_TRACE(file.filename().string() + ": " + mutation);
    Spit(file, bytes);
    const uint64_t hits_before = hits.Value();
    const uint64_t misses_before = misses.Value();
    const uint64_t corrupt_before = corrupt.Value();
    g_largest_allocation.store(0, std::memory_order_relaxed);
    Result<std::string> output = Status::Internal("rerun threw");
    EXPECT_NO_THROW(output = rerun());
    const size_t largest = g_largest_allocation.load(std::memory_order_relaxed);
    ASSERT_TRUE(output.ok()) << output.status();
    EXPECT_EQ(*output, cold);
    EXPECT_EQ(corrupt.Value() - corrupt_before, 1u);
    EXPECT_EQ(hits.Value() - hits_before, probes - 1)
        << "the hostile grain must not count as a hit";
    EXPECT_EQ(hits.Value() - hits_before + misses.Value() - misses_before,
              probes);
    EXPECT_LT(largest, size_t{1} << 24);
    EXPECT_EQ(Slurp(file), stored) << "the recompute stores the grain again";
  }
}

class UndecodableCheckpointTest : public PipelineResumeTest {};

TEST_F(UndecodableCheckpointTest, PipelineStagesRecompute) {
  for (FusionMethod fusion : {FusionMethod::kGreaterMedianThreshold,
                              FusionMethod::kDerecIndependent}) {
    SCOPED_TRACE(FusionMethodToString(fusion));
    fs::path dir = ScratchDir(std::string("undecodable_") +
                              FusionMethodToString(fusion));
    PipelineOptions options = FastOptions(dir);
    options.fusion = fusion;
    auto run = [&]() -> Result<std::string> {
      Rng rng(7);
      GREATER_ASSIGN_OR_RETURN(
          PipelineResult result,
          MultiTablePipeline(options).Run(data_->ads, data_->feeds,
                                          "user_id", &rng));
      return WriteCsvString(result.synthetic_parent) +
             WriteCsvString(result.synthetic_flat);
    };
    const std::string cold = run().ValueOrDie();
    const std::vector<std::string> stages =
        fusion == FusionMethod::kDerecIndependent
            ? std::vector<std::string>{"prepare", "fit", "sample"}
            : std::vector<std::string>{"prepare", "fuse", "fit", "sample"};
    for (const std::string& stage : stages) {
      ExpectEachRewriteRecomputes(GrainFile(dir, "stage." + stage + "."),
                                  "stats", "ckpt.stage_", stages.size(),
                                  cold, run);
    }
  }
}

TEST_F(UndecodableCheckpointTest, IngestChunkRecomputes) {
  fs::path dir = ScratchDir("undecodable_ingest");
  // Four chunks of three records; the second holds a short record, so
  // its document carries a quarantine entry as well as rows.
  const std::string text =
      "a,b,c\n0,0,x\n1,2,y\n2,4,x\n3,6,y\n4\n5,10,x\n6,12,y\n7,14,x\n"
      "8,16,y\n9,18,x\n10,20,y\n11,22,x\n";
  StreamOptions stream;
  stream.chunk_rows = 3;
  stream.num_workers = 2;
  auto run = [&]() -> Result<std::string> {
    CheckpointStore store(CheckpointScope::kChunk, dir.string(), "unit");
    StreamIngestReport report;
    GREATER_ASSIGN_OR_RETURN(
        Table table,
        ReadCsvStringStreaming(text, CsvReadOptions(), stream,
                               StreamPolicy::kLenient, &report, &store));
    if (report.quarantined != 1 || !report.Reconciles()) {
      return Status::Internal("ingest report does not reconcile");
    }
    return WriteCsvString(table);
  };
  const std::string cold = run().ValueOrDie();
  ExpectEachRewriteRecomputes(GrainFile(dir, "chunk.unit.1."), "",
                              "stream.chunk_", 4, cold, run);
}

TEST_F(UndecodableCheckpointTest, EmitChunkRecomputes) {
  GreatSynthesizer model{GreatSynthesizer::Options()};
  Rng fit_rng(17);
  ASSERT_TRUE(model.Fit(SmallTable(), &fit_rng).ok());
  fs::path dir = ScratchDir("undecodable_emit");
  const fs::path out = dir / "out.csv";
  SampleEmitOptions emit;
  emit.chunk_rows = 8;
  emit.checkpoint_dir = (dir / "ckpt").string();
  auto run = [&]() -> Result<std::string> {
    GREATER_ASSIGN_OR_RETURN(
        SampleReport report,
        SampleRowsToCsvStreaming(model, 30, 7, out.string(), emit));
    if (!report.Reconciles()) return Status::Internal("report mismatch");
    return Slurp(out);
  };
  const std::string cold = run().ValueOrDie();
  ExpectEachRewriteRecomputes(GrainFile(dir / "ckpt", "chunk.oocore.emit.1."),
                              "csv", "stream.chunk_", 4, cold, run);
}

TEST_F(UndecodableCheckpointTest, OutOfCoreModelRecomputes) {
  fs::path dir = ScratchDir("undecodable_model");
  const fs::path input = dir / "input.csv";
  const fs::path out = dir / "out.csv";
  ASSERT_TRUE(WriteCsvFile(SmallTable(), input.string()).ok());
  StreamingSynthesisOptions options;
  options.stream.chunk_rows = 16;
  options.emit_chunk_rows = 10;
  options.checkpoint_dir = (dir / "ckpt").string();
  auto run = [&]() -> Result<std::string> {
    GREATER_ASSIGN_OR_RETURN(
        StreamingSynthesisResult result,
        RunFromCsvStreaming(input.string(), out.string(), 25, options));
    if (result.model_from_checkpoint) {
      return Status::Internal("hostile model document was loaded");
    }
    return Slurp(out);
  };
  const std::string cold = run().ValueOrDie();
  ExpectEachRewriteRecomputes(GrainFile(dir / "ckpt", "stage.oocore.model."),
                              "", "ckpt.stage_", 1, cold, run);
}

}  // namespace
}  // namespace greater
