#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "per_row_reference.h"
#include "synth/batch_decode.h"
#include "synth/great_synthesizer.h"
#include "synth/sample_report.h"
#include "tabular/table.h"

// Global allocation counter for the steady-state zero-allocation probe.
// The overrides apply binary-wide; only the delta across the measured
// lockstep steps is asserted on.
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
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.GetRow(r), b.GetRow(r)) << "row " << r;
  }
}

GreatSynthesizer FitWith(GreatSynthesizer::Options options,
                         const Table& train, uint64_t fit_seed) {
  GreatSynthesizer synth(options);
  Rng fit(fit_seed);
  EXPECT_TRUE(synth.Fit(train, &fit).ok());
  return synth;
}

GreatSynthesizer::Options TinyNeuralOptions() {
  GreatSynthesizer::Options options;
  options.backbone = GreatSynthesizer::Backbone::kNeural;
  options.neural.context_window = 4;
  options.neural.embed_dim = 4;
  options.neural.hidden_dim = 8;
  options.neural.epochs = 2;
  options.neural.pretrain_epochs = 0;
  // The deliberately under-trained backbone can exhaust retry budgets;
  // lenient policy keeps the run alive, identically on every path.
  options.policy = SamplePolicy::kLenient;
  return options;
}

// ---------- Bitwise equivalence: engine vs per-row reference ----------

TEST(BatchDecodeTest, BatchedEqualsSerialAtEveryBatchSizeNGram) {
  Table train = SmallTable();
  GreatSynthesizer::Options serial_options;
  GreatSynthesizer serial = FitWith(serial_options, train, 7);
  Rng r_serial(11);
  Table reference =
      PerRowReferenceDecoder(serial).Sample(30, &r_serial).ValueOrDie();

  for (size_t batch : {1u, 2u, 3u, 8u, 64u}) {
    GreatSynthesizer::Options options;
    options.batch_rows = batch;
    GreatSynthesizer batched = FitWith(options, train, 7);
    Rng r_batched(11);
    Table t = batched.Sample(30, &r_batched).ValueOrDie();
    SCOPED_TRACE("batch_rows=" + std::to_string(batch));
    ExpectTablesEqual(reference, t);
  }
  // The caller-visible generator advanced identically (two base draws).
  Rng r_check(11);
  GreatSynthesizer::Options options;
  options.batch_rows = 8;
  GreatSynthesizer batched = FitWith(options, train, 7);
  ASSERT_TRUE(batched.Sample(30, &r_check).ok());
  EXPECT_EQ(r_serial.Uniform(), r_check.Uniform());
}

TEST(BatchDecodeTest, BatchedEqualsSerialNeuralBackbone) {
  Table train = SmallTable();
  GreatSynthesizer serial = FitWith(TinyNeuralOptions(), train, 7);
  Rng r1(13);
  Table t_serial = PerRowReferenceDecoder(serial).Sample(12, &r1).ValueOrDie();
  for (size_t batch : {1u, 8u}) {
    GreatSynthesizer::Options options = TinyNeuralOptions();
    options.batch_rows = batch;
    GreatSynthesizer batched = FitWith(options, train, 7);
    Rng r2(13);
    Table t_batched = batched.Sample(12, &r2).ValueOrDie();
    SCOPED_TRACE("batch_rows=" + std::to_string(batch));
    ExpectTablesEqual(t_serial, t_batched);
  }
}

TEST(BatchDecodeTest, BatchedEqualsSerialWithCacheDisabled) {
  // Cache off exercises the grouped-evaluation CDF replay rather than the
  // DecodeCache resolve/draw split.
  Table train = SmallTable();
  GreatSynthesizer::Options off;
  off.decode_cache.enabled = false;
  GreatSynthesizer serial = FitWith(off, train, 7);
  Rng r1(17);
  Table t_serial = PerRowReferenceDecoder(serial).Sample(24, &r1).ValueOrDie();
  const double next_serial = r1.Uniform();
  for (size_t batch : {1u, 8u}) {
    GreatSynthesizer::Options batched_off = off;
    batched_off.batch_rows = batch;
    GreatSynthesizer batched = FitWith(batched_off, train, 7);
    Rng r2(17);
    Table t_batched = batched.Sample(24, &r2).ValueOrDie();
    SCOPED_TRACE("batch_rows=" + std::to_string(batch));
    ExpectTablesEqual(t_serial, t_batched);
    EXPECT_EQ(next_serial, r2.Uniform());
  }
}

TEST(BatchDecodeTest, BatchedConditionalEqualsSerial) {
  Table train = SmallTable();
  GreatSynthesizer serial = FitWith(GreatSynthesizer::Options(), train, 7);

  Schema cond_schema({Field("name", ValueType::kString)});
  Table conditions(cond_schema);
  const char* names[] = {"Grace", "Yin", "Anson", "Mia"};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(conditions.AppendRow({Value(names[i % 4])}).ok());
  }

  Rng r1(23);
  Table t_serial = PerRowReferenceDecoder(serial)
                       .SampleConditional(conditions, &r1)
                       .ValueOrDie();
  for (size_t batch : {1u, 4u}) {
    GreatSynthesizer::Options options;
    options.batch_rows = batch;
    GreatSynthesizer batched = FitWith(options, train, 7);
    Rng r2(23);
    Table t_batched = batched.SampleConditional(conditions, &r2).ValueOrDie();
    SCOPED_TRACE("batch_rows=" + std::to_string(batch));
    ExpectTablesEqual(t_serial, t_batched);
    for (size_t r = 0; r < t_batched.num_rows(); ++r) {
      EXPECT_EQ(t_batched.at(r, 0).ToDisplayString(), names[r % 4]);
    }
  }
}

TEST(BatchDecodeTest, BatchedEqualsSerialFreeValueLenientMode) {
  // Free-value decoding with a tight retry budget drives the rejection,
  // fallback-grammar, and snap paths; lenient policy keeps exhausted rows
  // as accounted gaps. Every one of those branches must consume the same
  // per-row stream on both engines.
  Table train = SmallTable();
  GreatSynthesizer::Options options;
  options.constrain_values_to_column = false;
  options.max_attempts_per_row = 3;
  options.policy = SamplePolicy::kLenient;
  GreatSynthesizer serial = FitWith(options, train, 7);
  Rng r1(29);
  SampleReport report_serial;
  Table t_serial = PerRowReferenceDecoder(serial)
                       .Sample(20, &r1, &report_serial)
                       .ValueOrDie();
  EXPECT_TRUE(report_serial.Reconciles());
  for (size_t batch : {1u, 8u}) {
    GreatSynthesizer::Options batched_options = options;
    batched_options.batch_rows = batch;
    GreatSynthesizer batched = FitWith(batched_options, train, 7);
    Rng r2(29);
    SampleReport report_batched;
    Table t_batched = batched.Sample(20, &r2, &report_batched).ValueOrDie();
    SCOPED_TRACE("batch_rows=" + std::to_string(batch));
    ExpectTablesEqual(t_serial, t_batched);
    EXPECT_TRUE(report_batched.Reconciles());
    EXPECT_EQ(report_serial.rows_emitted, report_batched.rows_emitted);
    EXPECT_EQ(report_serial.attempts, report_batched.attempts);
    EXPECT_EQ(report_serial.snapped_cells, report_batched.snapped_cells);
    EXPECT_EQ(report_serial.fallback_grammar_uses,
              report_batched.fallback_grammar_uses);
  }
}

TEST(BatchDecodeTest, BatchedParallelEqualsSerialPerRow) {
  Table train = SmallTable();
  GreatSynthesizer serial = FitWith(GreatSynthesizer::Options(), train, 7);
  Rng r1(31);
  Table t_serial = PerRowReferenceDecoder(serial).Sample(40, &r1).ValueOrDie();

  // Rows own their derived streams, so output is invariant to the whole
  // scheduling cross-product: the serial per-row reference must equal 4
  // threads x lockstep chunks of any size.
  for (size_t batch : {1u, 8u}) {
    GreatSynthesizer::Options options;
    options.num_threads = 4;
    options.batch_rows = batch;
    GreatSynthesizer batched = FitWith(options, train, 7);
    Rng r2(31);
    Table t_batched = batched.Sample(40, &r2).ValueOrDie();
    SCOPED_TRACE("batch_rows=" + std::to_string(batch));
    ExpectTablesEqual(t_serial, t_batched);
  }
}

TEST(BatchDecodeTest, SampleRowsPoolEqualsSampleAtAnyBatch) {
  Table train = SmallTable();
  GreatSynthesizer::Options options;
  options.batch_rows = 5;
  GreatSynthesizer synth = FitWith(options, train, 7);

  Rng r1(37), r2(37);
  ThreadPool pool(3);
  Table via_pool = synth.SampleRows(25, &r1, &pool).ValueOrDie();
  Table via_sample = synth.Sample(25, &r2).ValueOrDie();
  ExpectTablesEqual(via_pool, via_sample);
}

// ---------- SampleRow is one engine lane ----------

TEST(BatchDecodeTest, SampleRowIsOneLaneOfSampleConditional) {
  Table train = SmallTable();
  GreatSynthesizer synth = FitWith(GreatSynthesizer::Options(), train, 7);

  // Forced: the row SampleConditional returns for a one-row table of the
  // forced values, from an equal generator — which then advanced equally.
  std::map<std::string, Value> forced = {{"lunch", Value(int64_t{2})},
                                         {"name", Value("Yin")}};
  Table conditions(Schema({Field("lunch", ValueType::kInt),
                           Field("name", ValueType::kString)}));
  ASSERT_TRUE(conditions.AppendRow({Value(int64_t{2}), Value("Yin")}).ok());
  for (uint64_t seed : {43u, 44u, 45u}) {
    Rng r_row(seed), r_table(seed);
    Row row = synth.SampleRow(&r_row, &forced).ValueOrDie();
    Table table = synth.SampleConditional(conditions, &r_table).ValueOrDie();
    ASSERT_EQ(table.num_rows(), 1u);
    EXPECT_EQ(row, table.GetRow(0)) << "seed " << seed;
    EXPECT_EQ(r_row.Uniform(), r_table.Uniform());
  }

  // Unforced: row 0 of Sample(1).
  for (uint64_t seed : {47u, 48u, 49u}) {
    Rng r_row(seed), r_table(seed);
    Row row = synth.SampleRow(&r_row).ValueOrDie();
    Table table = synth.Sample(1, &r_table).ValueOrDie();
    ASSERT_EQ(table.num_rows(), 1u);
    EXPECT_EQ(row, table.GetRow(0)) << "seed " << seed;
    EXPECT_EQ(r_row.Uniform(), r_table.Uniform());
  }
}

// ---------- Moving a synthesizer that has sampled ----------

TEST(BatchDecodeTest, SampleAfterMoveMatchesUnmovedRun) {
  // The serial engine a Sample call builds is bound to its synthesizer; a
  // moved-to synthesizer must decode through an engine of its own, and
  // its output must continue exactly where the unmoved run would.
  Table train = SmallTable();
  for (size_t batch : {1u, 8u}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch));
    GreatSynthesizer::Options options;
    options.batch_rows = batch;

    GreatSynthesizer unmoved = FitWith(options, train, 7);
    Rng r_ref(53);
    ASSERT_TRUE(unmoved.Sample(10, &r_ref).ok());
    Table expected = unmoved.Sample(10, &r_ref).ValueOrDie();

    GreatSynthesizer source = FitWith(options, train, 7);
    Rng r_construct(53);
    ASSERT_TRUE(source.Sample(10, &r_construct).ok());
    GreatSynthesizer constructed(std::move(source));
    ExpectTablesEqual(expected,
                      constructed.Sample(10, &r_construct).ValueOrDie());

    GreatSynthesizer assign_source = FitWith(options, train, 7);
    Rng r_assign(53);
    ASSERT_TRUE(assign_source.Sample(10, &r_assign).ok());
    GreatSynthesizer assigned = FitWith(options, train, 7);
    Rng r_other(99);
    ASSERT_TRUE(assigned.Sample(3, &r_other).ok());  // owns an engine too
    assigned = std::move(assign_source);
    ExpectTablesEqual(expected, assigned.Sample(10, &r_assign).ValueOrDie());
  }
}

// ---------- Options codec ----------

TEST(BatchDecodeTest, BatchRowsSurvivesSerializeRoundTrip) {
  Table train = SmallTable();
  GreatSynthesizer::Options options;
  options.batch_rows = 16;
  GreatSynthesizer synth = FitWith(options, train, 7);
  std::string bytes = synth.SerializeBinary().ValueOrDie();
  GreatSynthesizer loaded;
  ASSERT_TRUE(loaded.DeserializeBinary(bytes).ok());
  EXPECT_EQ(loaded.options().batch_rows, 16u);

  Rng r1(41), r2(41);
  Table t_orig = synth.Sample(15, &r1).ValueOrDie();
  Table t_loaded = loaded.Sample(15, &r2).ValueOrDie();
  ExpectTablesEqual(t_orig, t_loaded);
}

// ---------- synth.batch.* metrics ----------

TEST(BatchDecodeTest, BatchMetricsReconcile) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& lanes = registry.GetCounter("synth.batch.lanes");
  Counter& lane_steps = registry.GetCounter("synth.batch.lane_steps");
  Counter& group_evals = registry.GetCounter("synth.batch.group_evals");
  Counter& saved = registry.GetCounter("synth.batch.model_evals_saved");
  uint64_t lanes_before = lanes.Value();
  uint64_t lane_steps_before = lane_steps.Value();
  uint64_t group_evals_before = group_evals.Value();
  uint64_t saved_before = saved.Value();

  Table train = SmallTable();
  GreatSynthesizer::Options options;
  options.batch_rows = 8;
  GreatSynthesizer synth = FitWith(options, train, 7);
  Rng rng(11);
  ASSERT_TRUE(synth.Sample(32, &rng).ok());

  uint64_t lanes_delta = lanes.Value() - lanes_before;
  uint64_t lane_steps_delta = lane_steps.Value() - lane_steps_before;
  uint64_t group_evals_delta = group_evals.Value() - group_evals_before;
  uint64_t saved_delta = saved.Value() - saved_before;
  EXPECT_EQ(lanes_delta, 32u);
  // Every lane-step was served by exactly one group evaluation, shared or
  // private: evals + saved == lane-steps.
  EXPECT_EQ(group_evals_delta + saved_delta, lane_steps_delta);
  // Lanes start in lockstep from the same empty context, so grouping must
  // actually share evaluations.
  EXPECT_GT(saved_delta, 0u);
}

// ---------- Steady-state allocation discipline ----------

struct AllocProbe {
  uint64_t at_step1 = 0;
  uint64_t at_step4 = 0;
};

TEST(BatchDecodeTest, SteadyStateLockstepStepsDoNotAllocate) {
  Table train = SmallTable();
  // Cache off keeps the measured window free of cache insertions (misses
  // on fresh contexts allocate by design); the grouped CDF-replay path is
  // the pure hot loop.
  GreatSynthesizer::Options options;
  options.decode_cache.enabled = false;
  options.batch_rows = 8;
  GreatSynthesizer synth = FitWith(options, train, 7);

  BatchDecodeEngine engine(synth);
  SampleReport report;
  std::vector<Result<Row>> out;
  // Warm chunk: sizes the arena, lane vectors, and draw scratch.
  engine.RunChunk(0, 8, nullptr, 99, &report, 0, &out);

  // Measured chunk: early lockstep steps (1 through 4) run entirely in
  // pre-sized state — no lane can finalize a row that early, so the only
  // work is grouped evaluation, CDF draws, and plain token stores.
  AllocProbe probe;
  engine.on_step_user = &probe;
  engine.on_step_for_testing = [](size_t step, size_t /*groups*/,
                                  void* user) {
    auto* p = static_cast<AllocProbe*>(user);
    if (step == 1) p->at_step1 = g_allocations.load();
    if (step == 4) p->at_step4 = g_allocations.load();
  };
  out.clear();
  engine.RunChunk(8, 16, nullptr, 99, &report, 0, &out);
  engine.on_step_for_testing = nullptr;

  ASSERT_GT(probe.at_step1, 0u);
  EXPECT_EQ(probe.at_step4 - probe.at_step1, 0u)
      << "lockstep steps 2-4 allocated";
  EXPECT_EQ(out.size(), 8u);
  EXPECT_TRUE(report.Reconciles());
}

// ---------- Direct engine use: report parity ----------

TEST(BatchDecodeTest, RunChunkReportMatchesSampleReportContract) {
  Table train = SmallTable();
  GreatSynthesizer::Options options;
  options.batch_rows = 4;
  GreatSynthesizer synth = FitWith(options, train, 7);

  BatchDecodeEngine engine(synth);
  SampleReport report;
  std::vector<Result<Row>> out;
  engine.RunChunk(0, 12, nullptr, 1234, &report, 0, &out);
  ASSERT_EQ(out.size(), 12u);
  for (const Result<Row>& row : out) {
    EXPECT_TRUE(row.ok() ||
                row.status().code() == StatusCode::kResourceExhausted);
  }
  EXPECT_TRUE(report.Reconciles());
  EXPECT_EQ(report.rows_requested, 12u);
  const BatchDecodeEngine::LocalStats& stats = engine.stats();
  EXPECT_EQ(stats.lanes, 12u);
  EXPECT_EQ(stats.group_evals + stats.model_evals_saved, stats.lane_steps);
}

}  // namespace
}  // namespace greater
