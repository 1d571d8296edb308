// Fault-injection robustness suite: arms the registry's named fault points
// and asserts (a) strict mode surfaces stage-annotated provenance chains,
// (b) lenient mode degrades gracefully with a reconciling SampleReport.

#include <gtest/gtest.h>

#include "common/fault.h"
#include "crosstable/pipeline.h"
#include "datagen/digix.h"
#include "obs/metrics.h"
#include "serve/synthesis_server.h"
#include "stream/bounded_queue.h"
#include "stream/csv_ingest.h"
#include "synth/great_synthesizer.h"
#include "tabular/csv.h"

namespace greater {
namespace {

// Shared small dataset; generating once keeps the suite fast.
class RobustnessTest : public testing::Test {
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
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }

  static PipelineOptions FastOptions(SamplePolicy policy) {
    PipelineOptions options;
    options.fusion = FusionMethod::kGreaterMedianThreshold;
    options.semantic = SemanticMode::kNone;
    options.synth.encoder.permutations_per_row = 1;
    options.synth.policy = policy;
    return options;
  }

  static bool ContextMentions(const Status& status, const std::string& text) {
    for (const auto& frame : status.context()) {
      if (frame.find(text) != std::string::npos) return true;
    }
    return false;
  }

  static DigixDataset* data_;
};

DigixDataset* RobustnessTest::data_ = nullptr;

// A 30%-per-row kResourceExhausted fault on SampleRow, matching the
// acceptance scenario in ISSUE tracking.
FaultSpec ThirtyPercentExhaustion() {
  FaultSpec spec;
  spec.code = StatusCode::kResourceExhausted;
  spec.message = "injected row exhaustion";
  spec.probability = 0.3;
  spec.seed = 2026;
  return spec;
}

TEST_F(RobustnessTest, CsvReadFaultSurfacesInjectedStatus) {
  FaultSpec spec;
  spec.code = StatusCode::kDataLoss;
  spec.message = "disk went away";
  ScopedFault fault("csv.read", spec);
  auto result = ReadCsvString("a,b\n1,2\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(result.status().message(), "disk went away");
}

TEST_F(RobustnessTest, LmFitFaultNamesTheFitStageAndTable) {
  ScopedFault fault("lm.fit");
  MultiTablePipeline pipeline(FastOptions(SamplePolicy::kStrict));
  Rng rng(7);
  auto result = pipeline.Run(data_->ads, data_->feeds, "user_id", &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(ContextMentions(result.status(), "fitting the parent model"))
      << result.status().ToString();
  EXPECT_TRUE(ContextMentions(result.status(), "stage 'fit'"))
      << result.status().ToString();
  EXPECT_TRUE(ContextMentions(result.status(), "'fused'"))
      << result.status().ToString();
}

TEST_F(RobustnessTest, ReduceFaultNamesTheReduceStage) {
  ScopedFault fault("pipeline.reduce");
  MultiTablePipeline pipeline(FastOptions(SamplePolicy::kStrict));
  Rng rng(7);
  auto result = pipeline.Run(data_->ads, data_->feeds, "user_id", &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(ContextMentions(result.status(), "stage 'reduce'"))
      << result.status().ToString();
}

TEST_F(RobustnessTest, FlattenFaultNamesTheFlattenStage) {
  ScopedFault fault("pipeline.flatten");
  MultiTablePipeline pipeline(FastOptions(SamplePolicy::kStrict));
  Rng rng(7);
  auto result = pipeline.Run(data_->ads, data_->feeds, "user_id", &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(ContextMentions(result.status(), "stage 'flatten'"))
      << result.status().ToString();
}

TEST_F(RobustnessTest, StrictSamplingFaultReportsStageAndTable) {
  // Acceptance scenario, strict half: a 30%-probability row fault makes
  // the run fail with ResourceExhausted, and the context chain names the
  // failing stage and table.
  ScopedFault fault("synth.sample_row", ThirtyPercentExhaustion());
  MultiTablePipeline pipeline(FastOptions(SamplePolicy::kStrict));
  Rng rng(7);
  auto result = pipeline.Run(data_->ads, data_->feeds, "user_id", &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(ContextMentions(result.status(), "stage 'sample'"))
      << result.status().ToString();
  EXPECT_TRUE(ContextMentions(result.status(), "table '"))
      << result.status().ToString();
}

TEST_F(RobustnessTest, LenientSamplingFaultDegradesAndReconciles) {
  // Acceptance scenario, lenient half: the same fault pattern completes
  // with partial output and an exactly-reconciling SampleReport.
  ScopedFault fault("synth.sample_row", ThirtyPercentExhaustion());
  MultiTablePipeline pipeline(FastOptions(SamplePolicy::kLenient));
  Rng rng(7);
  PipelineResult result =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &rng).ValueOrDie();

  const SampleReport& report = result.sample_report;
  EXPECT_GT(report.rows_requested, 0u);
  EXPECT_GT(report.rows_emitted, 0u);
  EXPECT_GT(report.rows_exhausted, 0u);  // ~30% of rows must have failed
  EXPECT_GT(report.injected_faults, 0u);
  EXPECT_TRUE(report.Reconciles())
      << "emitted " << report.rows_emitted << " + exhausted "
      << report.rows_exhausted << " != requested " << report.rows_requested;
  EXPECT_EQ(report.rows_emitted + report.rows_exhausted,
            report.rows_requested);
  EXPECT_GT(result.synthetic_flat.num_rows(), 0u);
}

TEST_F(RobustnessTest, LenientDerecRunAlsoReconciles) {
  // DEREC samples from three models (parent + both child rounds); the
  // pipeline-level report must still account for every requested row.
  ScopedFault fault("synth.sample_row", ThirtyPercentExhaustion());
  PipelineOptions options = FastOptions(SamplePolicy::kLenient);
  options.fusion = FusionMethod::kDerecIndependent;
  MultiTablePipeline pipeline(options);
  Rng rng(7);
  PipelineResult result =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &rng).ValueOrDie();
  EXPECT_GT(result.sample_report.rows_exhausted, 0u);
  EXPECT_TRUE(result.sample_report.Reconciles());
}

TEST_F(RobustnessTest, UnarmedRunsMatchFaultFreeBehaviour) {
  // The fault machinery must be invisible when disarmed: two identical
  // seeded runs, one before and one after an arm/disarm cycle, agree.
  MultiTablePipeline pipeline(FastOptions(SamplePolicy::kStrict));
  Rng r1(11);
  PipelineResult a =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &r1).ValueOrDie();
  {
    ScopedFault fault("synth.sample_row", ThirtyPercentExhaustion());
  }
  Rng r2(11);
  PipelineResult b =
      pipeline.Run(data_->ads, data_->feeds, "user_id", &r2).ValueOrDie();
  EXPECT_TRUE(a.synthetic_flat == b.synthetic_flat);
  EXPECT_EQ(b.sample_report.rows_exhausted, 0u);
  EXPECT_EQ(b.sample_report.injected_faults, 0u);
  EXPECT_TRUE(b.sample_report.Reconciles());
}

// ---------- GreatSynthesizer-level degradation ----------

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

class SynthesizerFaultTest : public testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
};

TEST_F(SynthesizerFaultTest, LenientSampleDropsExactlyTheFiredRows) {
  GreatSynthesizer::Options options;
  options.policy = SamplePolicy::kLenient;
  GreatSynthesizer synth(options);
  Rng rng(3);
  ASSERT_TRUE(synth.Fit(SmallTable(), &rng).ok());

  FaultSpec spec;
  spec.code = StatusCode::kResourceExhausted;
  spec.skip_hits = 2;  // rows 1-2 pass
  spec.max_fires = 3;  // rows 3-5 fail
  ScopedFault fault("synth.sample_row", spec);

  SampleReport report;
  Table out = synth.Sample(10, &rng, &report).ValueOrDie();
  EXPECT_EQ(out.num_rows(), 7u);
  EXPECT_EQ(report.rows_requested, 10u);
  EXPECT_EQ(report.rows_emitted, 7u);
  EXPECT_EQ(report.rows_exhausted, 3u);
  EXPECT_EQ(report.injected_faults, 3u);
  EXPECT_TRUE(report.Reconciles());
}

TEST_F(SynthesizerFaultTest, StrictSampleFailsOnFirstFiredRow) {
  GreatSynthesizer synth;  // strict by default
  Rng rng(3);
  ASSERT_TRUE(synth.Fit(SmallTable(), &rng).ok());

  FaultSpec spec;
  spec.code = StatusCode::kResourceExhausted;
  spec.skip_hits = 4;
  ScopedFault fault("synth.sample_row", spec);

  SampleReport report;
  auto result = synth.Sample(10, &rng, &report);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // The per-call row position is part of the provenance.
  ASSERT_FALSE(result.status().context().empty());
  EXPECT_NE(result.status().context()[0].find("row 5 of 10"),
            std::string::npos)
      << result.status().ToString();
  // Even on the error path the partial account reconciles.
  EXPECT_EQ(report.rows_requested, 5u);
  EXPECT_EQ(report.rows_emitted, 4u);
  EXPECT_EQ(report.rows_exhausted, 1u);
  EXPECT_TRUE(report.Reconciles());
}

TEST_F(SynthesizerFaultTest, NonExhaustionFaultFailsEvenLenientMode) {
  // Lenient mode only absorbs resource exhaustion; an internal fault is a
  // real bug and must propagate.
  GreatSynthesizer::Options options;
  options.policy = SamplePolicy::kLenient;
  GreatSynthesizer synth(options);
  Rng rng(3);
  ASSERT_TRUE(synth.Fit(SmallTable(), &rng).ok());

  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.message = "corrupted model state";
  ScopedFault fault("synth.sample_row", spec);

  auto result = synth.Sample(5, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(result.status().message(), "corrupted model state");
}

TEST_F(SynthesizerFaultTest, CumulativeStatsAccumulateAcrossCalls) {
  GreatSynthesizer::Options options;
  options.policy = SamplePolicy::kLenient;
  GreatSynthesizer synth(options);
  Rng rng(3);
  ASSERT_TRUE(synth.Fit(SmallTable(), &rng).ok());

  FaultSpec spec;
  spec.code = StatusCode::kResourceExhausted;
  spec.max_fires = 1;
  ScopedFault fault("synth.sample_row", spec);

  SampleReport first, second;
  ASSERT_TRUE(synth.Sample(4, &rng, &first).ok());
  ASSERT_TRUE(synth.Sample(4, &rng, &second).ok());
  EXPECT_EQ(first.rows_requested, 4u);
  EXPECT_EQ(second.rows_requested, 4u);
  EXPECT_EQ(second.rows_exhausted, 0u);  // fire budget spent in call one
  EXPECT_EQ(synth.stats().rows_requested, 8u);
  EXPECT_EQ(synth.stats().rows_exhausted, 1u);
  EXPECT_TRUE(synth.stats().Reconciles());
}

TEST_F(SynthesizerFaultTest, RegistryCountersMatchSampleReport) {
  // The observability counters are exported from the same per-call report
  // deltas the SampleReport API returns, so the two accountings cannot
  // drift: fault_trips mirrors injected_faults, rows_degraded mirrors
  // rows_exhausted, and the row ledger reconciles in the registry too.
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& fault_trips = registry.GetCounter("synth.fault_trips");
  Counter& rows_degraded = registry.GetCounter("synth.rows_degraded");
  Counter& rows_requested = registry.GetCounter("synth.rows_requested");
  Counter& rows_emitted = registry.GetCounter("synth.rows_emitted");
  Counter& registry_trips = registry.GetCounter("fault.trips");
  uint64_t trips_before = fault_trips.Value();
  uint64_t degraded_before = rows_degraded.Value();
  uint64_t requested_before = rows_requested.Value();
  uint64_t emitted_before = rows_emitted.Value();
  uint64_t registry_trips_before = registry_trips.Value();

  GreatSynthesizer::Options options;
  options.policy = SamplePolicy::kLenient;
  GreatSynthesizer synth(options);
  Rng rng(3);
  ASSERT_TRUE(synth.Fit(SmallTable(), &rng).ok());

  FaultSpec spec;
  spec.code = StatusCode::kResourceExhausted;
  spec.skip_hits = 2;
  spec.max_fires = 3;
  ScopedFault fault("synth.sample_row", spec);

  SampleReport report;
  ASSERT_TRUE(synth.Sample(10, &rng, &report).ok());
  ASSERT_TRUE(report.Reconciles());
  ASSERT_GT(report.injected_faults, 0u);

  EXPECT_EQ(fault_trips.Value() - trips_before, report.injected_faults);
  EXPECT_EQ(rows_degraded.Value() - degraded_before, report.rows_exhausted);
  EXPECT_EQ(rows_requested.Value() - requested_before,
            report.rows_requested);
  EXPECT_EQ(rows_emitted.Value() - emitted_before, report.rows_emitted);
  // The row ledger reconciles inside the registry as well.
  EXPECT_EQ((rows_emitted.Value() - emitted_before) +
                (rows_degraded.Value() - degraded_before),
            rows_requested.Value() - requested_before);
  // Every injected synth fault also passed through the fault registry's
  // own trip counter (which counts trips at every armed point).
  EXPECT_GE(registry_trips.Value() - registry_trips_before,
            report.injected_faults);
}

// ---------- SampleReport arithmetic ----------

TEST(SampleReportTest, MergeAndDeltaAreInverse) {
  SampleReport a;
  a.rows_requested = 10;
  a.rows_emitted = 8;
  a.rows_exhausted = 2;
  a.attempts = 30;
  a.rejected_invalid_value = 5;
  SampleReport b = a;
  b.Merge(a);
  EXPECT_EQ(b.rows_requested, 20u);
  EXPECT_EQ(b.attempts, 60u);
  SampleReport delta = b.DeltaSince(a);
  EXPECT_EQ(delta.rows_requested, a.rows_requested);
  EXPECT_EQ(delta.rejected_invalid_value, a.rejected_invalid_value);
  EXPECT_TRUE(delta.Reconciles());
}

TEST(SampleReportTest, RejectionRateAndToString) {
  SampleReport r;
  EXPECT_DOUBLE_EQ(r.RejectionRate(), 0.0);
  r.rows_requested = 4;
  r.rows_emitted = 3;
  r.rows_exhausted = 1;
  r.attempts = 10;
  r.rejected_invalid_value = 2;
  r.rejected_mid_row = 1;
  EXPECT_EQ(r.total_rejected(), 3u);
  EXPECT_DOUBLE_EQ(r.RejectionRate(), 0.3);
  std::string s = r.ToString();
  EXPECT_NE(s.find("4"), std::string::npos);
  EXPECT_NE(s.find("3"), std::string::npos);
}

TEST(SampleReportTest, PolicyNames) {
  EXPECT_STREQ(SamplePolicyToString(SamplePolicy::kStrict), "strict");
  EXPECT_STREQ(SamplePolicyToString(SamplePolicy::kLenient), "lenient");
}

// ---------- streaming-runtime fault points ----------
// Each injected failure must propagate as a typed Status through
// StreamRuntime's poison-everything shutdown — the whole point is that a
// failing stage unblocks its peers instead of deadlocking them.

std::string ManyRowCsv(size_t rows) {
  std::string text = "a,b\n";
  for (size_t i = 0; i < rows; ++i) {
    text += std::to_string(i) + ",x" + std::to_string(i) + "\n";
  }
  return text;
}

TEST_F(RobustnessTest, StreamQueueFullFaultPoisonsBlockedProducer) {
  FaultSpec spec;
  spec.code = StatusCode::kDeadlineExceeded;
  spec.message = "consumer died while producer was blocked";
  ScopedFault fault("stream.queue_full", spec);
  // Capacity 1 and a blocking consumer: the producer finds the queue full,
  // the fault fires, and Push reports rejection with the injected status.
  BoundedQueue<int> q("robustness.full", 1);
  ASSERT_TRUE(q.Push(1));
  EXPECT_FALSE(q.Push(2));
  EXPECT_EQ(q.error().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(q.Pop().has_value());  // poison drained the buffered item
  EXPECT_GE(FaultRegistry::Global().fires("stream.queue_full"), 1u);
}

TEST_F(RobustnessTest, StreamChunkParseFaultFailsIngestTyped) {
  FaultSpec spec;
  spec.code = StatusCode::kDataLoss;
  spec.message = "chunk parser crashed";
  spec.skip_hits = 2;
  ScopedFault fault("stream.chunk_parse", spec);
  StreamOptions options;
  options.chunk_rows = 4;
  options.queue_capacity = 2;
  options.num_workers = 2;
  options.io_block_bytes = 32;
  auto result = ReadCsvStringStreaming(ManyRowCsv(40), CsvReadOptions(),
                                       options, StreamPolicy::kStrict);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status().ToString().find("chunk parser crashed"),
            std::string::npos);
  EXPECT_TRUE(ContextMentions(result.status(), "streaming stage"));
  EXPECT_GE(FaultRegistry::Global().fires("stream.chunk_parse"), 1u);
}

TEST_F(RobustnessTest, StreamWorkerDeathFaultIsCaughtByWatchdogOnly) {
  FaultSpec spec;
  spec.max_fires = 1;
  ScopedFault fault("stream.worker_death", spec);
  StreamOptions options;
  options.chunk_rows = 4;
  options.queue_capacity = 2;
  options.num_workers = 1;
  options.io_block_bytes = 32;
  options.watchdog_timeout_ms = 60;
  options.watchdog_poll_ms = 5;
  // The lone parse worker dies silently (no status, no MarkDone): nothing
  // downstream would ever close, so only the watchdog can convict it.
  auto result = ReadCsvStringStreaming(ManyRowCsv(40), CsvReadOptions(),
                                       options, StreamPolicy::kStrict);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().ToString().find("heartbeat"),
            std::string::npos);
  EXPECT_GE(FaultRegistry::Global().fires("stream.worker_death"), 1u);
  EXPECT_GE(
      MetricsRegistry::Global().GetCounter("stream.watchdog_trips").Value(),
      1u);
}

// ---------- serving-layer fault points ----------

// Shared two-tenant server fixtures for the serve.* fault points.
Table ServeTrainTable(uint64_t seed) {
  Schema schema({Field("name", ValueType::kString),
                 Field("lunch", ValueType::kInt)});
  Table t(schema);
  const char* names[] = {"Grace", "Yin", "Anson", "Mia"};
  Rng rng(seed);
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(
        t.AppendRow({Value(names[rng.Index(4)]), Value(rng.UniformInt(1, 2))})
            .ok());
  }
  return t;
}

// A request for `rows` rows of `tenant` from `seed`, every other field at
// its default.
SampleRequest RowsRequest(const std::string& tenant, size_t rows,
                          uint64_t seed) {
  SampleRequest request;
  request.tenant = tenant;
  request.rows = rows;
  request.seed = seed;
  return request;
}

std::shared_ptr<const GreatSynthesizer> ServeFitTenant(uint64_t seed) {
  auto model = std::make_shared<GreatSynthesizer>();
  Rng fit(seed);
  EXPECT_TRUE(model->Fit(ServeTrainTable(seed), &fit).ok());
  return model;
}

TEST_F(RobustnessTest, ServeAdmitFaultRejectsTypedWhileOthersComplete) {
  SynthesisServer server(ServeOptions{});
  ASSERT_TRUE(server.AddTenant("alpha", ServeFitTenant(11)).ok());
  ASSERT_TRUE(server.AddTenant("beta", ServeFitTenant(23)).ok());
  ASSERT_TRUE(server.Start().ok());

  Counter& rejected =
      MetricsRegistry::Global().GetCounter("serve.rejected");
  uint64_t rejected_before = rejected.Value();

  FaultSpec spec;
  spec.code = StatusCode::kResourceExhausted;
  spec.message = "admission shed";
  spec.max_fires = 1;
  std::shared_ptr<RequestTicket> doomed;
  {
    ScopedFault fault("serve.admit", spec);
    doomed = server.Submit(RowsRequest("alpha", 6, 5));
  }
  // The tripped request is terminal before it ever entered the queue.
  ASSERT_TRUE(doomed->done());
  EXPECT_EQ(doomed->Wait().status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(doomed->Wait().status().ToString().find("admission shed"),
            std::string::npos);
  EXPECT_EQ(rejected.Value() - rejected_before, 1u);

  // Other tenants' (and the same tenant's) requests are untouched.
  std::vector<std::shared_ptr<RequestTicket>> fine;
  for (uint64_t i = 0; i < 4; ++i) {
    fine.push_back(server.Submit(RowsRequest(i % 2 == 0 ? "beta" : "alpha", 4, 60 + i)));
  }
  for (auto& ticket : fine) {
    ASSERT_TRUE(ticket->Wait().ok()) << ticket->Wait().status();
    EXPECT_TRUE(ticket->report().Reconciles());
    EXPECT_EQ(ticket->report().rows_emitted, 4u);
  }
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST_F(RobustnessTest, ServePackFaultFailsOneRequestOthersComplete) {
  ServeOptions options;
  options.num_workers = 1;  // serial pack sweeps: the oldest open request
                            // is deterministically the one that trips
  SynthesisServer server(options);
  ASSERT_TRUE(server.AddTenant("alpha", ServeFitTenant(11)).ok());
  ASSERT_TRUE(server.AddTenant("beta", ServeFitTenant(23)).ok());
  ASSERT_TRUE(server.Start().ok());

  FaultSpec spec;
  spec.code = StatusCode::kDataLoss;
  spec.message = "bundle assembly corrupted";
  spec.max_fires = 1;
  ScopedFault fault("serve.pack", spec);

  auto doomed = server.Submit(RowsRequest("alpha", 8, 5));
  std::vector<std::shared_ptr<RequestTicket>> others;
  for (uint64_t i = 0; i < 3; ++i) {
    others.push_back(server.Submit(RowsRequest("beta", 5, 80 + i)));
  }

  const Result<Table>& failed = doomed->Wait();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(failed.status().ToString().find("bundle assembly corrupted"),
            std::string::npos);
  EXPECT_GE(doomed->report().injected_faults, 1u);

  // Concurrent other-tenant requests complete and their reports reconcile
  // — a mid-pack trip never takes co-scheduled work down with it.
  for (auto& ticket : others) {
    ASSERT_TRUE(ticket->Wait().ok()) << ticket->Wait().status();
    EXPECT_TRUE(ticket->report().Reconciles());
    EXPECT_EQ(ticket->report().rows_emitted, 5u);
  }
  EXPECT_EQ(FaultRegistry::Global().fires("serve.pack"), 1u);
  EXPECT_TRUE(server.Shutdown().ok());
}

}  // namespace
}  // namespace greater
