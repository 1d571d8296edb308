// Workload `serve-zipf`.
//
// Why: an open-loop Poisson arrival schedule, sent by one generator thread
// that never waits on replies, into a SynthesisServer with 2 workers. It
// loads the serving stack (priority admission, cross-request packing,
// shedding), batched decode, the decode cache and bundle eviction; it
// bypasses CSV, fit-at-scale and crosstable entirely. Batch and background
// requests expose the admitter's idle poll at the `light` step.
//
// Traffic: 8 path-backed tenants, each fitted in set-up on a
// low-cardinality demographic table (one seed each), saved and registered
// with LoadTenant under a resident-byte budget below their total, so the
// Zipfian tail evicts and reloads. Requests: Zipfian(0.99) over tenants,
// 1-8 rows, 30% conditioned, 60% interactive / 25% batch / 15%
// background. The ladder is four fixed absolute rates at about 15%, 50%,
// 85% and 130% of the ~26k requests/s this configuration sustained within
// the latency limit on a 4-vCPU VM (Release build).

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/artifact_io.h"
#include "common/rng.h"
#include "eval/fidelity.h"
#include "serve/synthesis_server.h"
#include "serve/workload.h"
#include "synth/great_synthesizer.h"
#include "tabular/table.h"
#include "tabular/table_serde.h"
#include "workloads.h"

namespace wallbench {
namespace {

using greater::GreatSynthesizer;
using greater::RequestPriority;
using greater::RequestTicket;
using greater::Rng;
using greater::SampleRequest;
using greater::StatusCode;
using greater::SynthesisServer;
using greater::Table;

constexpr size_t kTenants = 8;
constexpr size_t kTenantRows = 240;
constexpr size_t kResidentBundles = 5;
constexpr size_t kServerWorkers = 2;
/// A request that is not served within this long from its due time (or
/// fails) misses the limit.
constexpr double kLatencyLimitMs = 25.0;
/// Share of sent requests that must meet the limit for a step to count as
/// sustained.
constexpr double kSustainedShare = 0.99;
/// Rounds of the ladder per run, each on a freshly set-up server.
constexpr size_t kRounds = 3;
constexpr double kWarmupS = 0.5;
/// Served rows kept per tenant for the fidelity score.
constexpr size_t kFidelityRowsPerTenant = 20000;
/// One request in this many is replayed and compared in the untraced run
/// (plus the first of every tenant and class at every step).
constexpr size_t kCheckStride = 97;
/// Width of the due-time windows a step's percentiles are taken over.
constexpr uint64_t kWindowNs = 500000000;

struct Step {
  const char* name;
  double rate_rps;
  double share;  // of --seconds; nominal, which p50_ms reads, gets the most
};
constexpr Step kLadder[] = {
    {"light", 4000.0, 0.2},
    {"nominal", 13000.0, 0.4},
    {"peak", 22000.0, 0.2},
    {"overload", 34000.0, 0.2},
};
constexpr size_t kLight = 0, kNominal = 1, kPeak = 2, kOverload = 3;

const char* kCities[] = {"Chicago", "Boston", "Austin", "Denver", "Seattle"};

/// The low-cardinality demographic table shape the micro benchmarks call
/// CategoricalTable: decode contexts recur constantly.
Table TenantTable(uint64_t seed) {
  greater::Schema schema({greater::Field("gender", greater::ValueType::kString),
                          greater::Field("age", greater::ValueType::kString),
                          greater::Field("residence", greater::ValueType::kString),
                          greater::Field("device", greater::ValueType::kInt)});
  Table t(schema);
  const char* genders[] = {"Male", "Female"};
  const char* ages[] = {"From 20 to 29", "From 30 to 39", "From 40 to 49"};
  Rng rng(seed);
  for (size_t i = 0; i < kTenantRows; ++i) {
    (void)t.AppendRow({greater::Value(genders[rng.Index(2)]),
                       greater::Value(ages[rng.Index(3)]),
                       greater::Value(kCities[rng.Index(5)]),
                       greater::Value(rng.UniformInt(1, 4))});
  }
  return t;
}

struct Tenants {
  std::vector<std::string> names;
  std::vector<std::string> paths;
  std::vector<Table> tables;
  std::vector<uint64_t> bytes;  // artifact size per tenant
};

bool FitAndSaveTenants(uint64_t seed, const std::string& dir, Tenants* out,
                       WorkloadResult* result) {
  *out = Tenants();
  for (size_t i = 0; i < kTenants; ++i) {
    const uint64_t tenant_seed = Rng::DeriveStreamSeed(seed, i);
    Table table = TenantTable(tenant_seed);
    GreatSynthesizer model;
    Rng fit(tenant_seed ^ 0x5eedull);
    greater::Status fitted = model.Fit(table, &fit);
    std::string path = dir + "/tenant" + std::to_string(i) + ".bundle";
    if (!fitted.ok() || !model.Save(path).ok()) {
      result->Fail("tenant " + std::to_string(i) + " fit/save failed: " +
                   fitted.ToString());
      return false;
    }
    out->names.push_back("tenant" + std::to_string(i));
    out->paths.push_back(path);
    out->tables.push_back(std::move(table));
    out->bytes.push_back(std::filesystem::file_size(path));
  }
  return true;
}

std::unique_ptr<SynthesisServer> StartServer(const Tenants& tenants,
                                             WorkloadResult* result) {
  greater::ServeOptions options;
  options.num_workers = kServerWorkers;
  options.admission_wait_ms = 2;  // bounded-wait admission: sheds when full
  options.shed_queue_depth = 96;  // queue-depth shed watermark
  // Room for exactly five of the eight bundles (the five largest), whatever
  // their sizes under this seed: the Zipfian tail evicts and reloads.
  std::vector<uint64_t> bytes = tenants.bytes;
  std::sort(bytes.rbegin(), bytes.rend());
  options.max_resident_bundle_bytes = 0;
  for (size_t i = 0; i < kResidentBundles; ++i) {
    options.max_resident_bundle_bytes += bytes[i];
  }
  auto server = std::make_unique<SynthesisServer>(options);
  for (size_t i = 0; i < tenants.names.size(); ++i) {
    if (!server->LoadTenant(tenants.names[i], tenants.paths[i]).ok()) {
      result->Fail("LoadTenant failed for " + tenants.names[i]);
      return nullptr;
    }
  }
  if (!server->Start().ok()) {
    result->Fail("server Start failed");
    return nullptr;
  }
  return server;
}

struct Plan {
  std::vector<SampleRequest> requests;
  std::vector<uint64_t> offsets_ns;  // due time from the step start
  double duration_s = 0.0;
};

Plan PlanStep(greater::WorkloadGenerator* gen, Rng* arrivals, double rate,
              double seconds) {
  Plan plan;
  plan.duration_s = seconds;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - arrivals->Uniform()) / rate;
    if (t >= seconds) break;
    plan.offsets_ns.push_back(static_cast<uint64_t>(t * 1e9));
    plan.requests.push_back(gen->Next());
  }
  return plan;
}

struct Outcome {
  uint64_t due_ns = 0;
  uint64_t submit_ns = 0;
  uint64_t submit_end_ns = 0;
  double latency_ms = 0.0;  // from the due time
  double server_ms = 0.0;   // RequestTicket::latency_us
  StatusCode code = StatusCode::kOk;
  size_t rows = 0;
};

struct StepRun {
  std::vector<Outcome> outcomes;
  /// Serialized served tables kept for the replay check.
  std::map<size_t, std::string> kept;
};

/// Per-tenant served rows (unconditioned requests) for the fidelity score.
struct ServedPool {
  std::vector<Table> tables;
  std::vector<size_t> rows;
};

std::string TableBytes(const Table& table) {
  greater::ByteWriter w;
  greater::AppendTable(table, &w);
  return w.bytes();
}

size_t TenantIndex(const std::string& name) {
  return static_cast<size_t>(std::stoul(name.substr(6)));  // "tenantN"
}

/// Sends `plan` on its schedule from this thread; a collector thread waits
/// the tickets in order, so the sender never blocks on a reply.
StepRun RunStep(SynthesisServer* server, const Plan& plan,
                const std::vector<bool>& keep, ServedPool* pool,
                Tracer* tracer, const char* span_name) {
  const size_t n = plan.requests.size();
  StepRun run;
  run.outcomes.resize(n);
  std::vector<std::shared_ptr<RequestTicket>> slots(n);
  std::atomic<size_t> published{0};

  std::thread collector([&] {
    for (size_t i = 0; i < n; ++i) {
      while (published.load(std::memory_order_acquire) <= i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::shared_ptr<RequestTicket> ticket = std::move(slots[i]);
      const greater::Result<Table>& served = ticket->Wait();
      Outcome& out = run.outcomes[i];
      out.server_ms = static_cast<double>(ticket->latency_us()) / 1e3;
      out.latency_ms = ToMs(out.submit_ns - out.due_ns) + out.server_ms;
      out.code = served.status().code();
      if (!served.ok()) continue;
      const Table& table = served.ValueOrDie();
      out.rows = table.num_rows();
      if (keep[i]) run.kept.emplace(i, TableBytes(table));
      const SampleRequest& request = plan.requests[i];
      if (pool != nullptr && request.conditioning.empty()) {
        const size_t t = TenantIndex(request.tenant);
        if (pool->rows[t] < kFidelityRowsPerTenant) {
          (void)pool->tables[t].AppendTable(table);
          pool->rows[t] += table.num_rows();
        }
      }
    }
  });

  // The sender sleeps to each due time rather than spinning, so it leaves
  // the cores to the server; a 1 us timer slack keeps the sleeps tight, and
  // whatever lateness remains is charged to the request (latency counts
  // from the due time) and reported as generator lag.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  ScopedSpan step_span(tracer, span_name);
  const uint64_t start_ns = NowNs() + 1000000;  // first due 1 ms from now
  for (size_t i = 0; i < n; ++i) {
    const uint64_t due = start_ns + plan.offsets_ns[i];
    uint64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    ScopedSpan submit_span(tracer, "serve.submit", i);
    std::shared_ptr<RequestTicket> ticket = server->Submit(plan.requests[i]);
    Outcome& out = run.outcomes[i];
    out.due_ns = due;
    out.submit_ns = now;
    out.submit_end_ns = NowNs();
    slots[i] = std::move(ticket);
    published.store(i + 1, std::memory_order_release);
  }
  collector.join();
  return run;
}

/// Condition rows exactly as the server types them: the request's forced
/// columns (in name order) replicated once per requested row.
Table ConditionsFor(const GreatSynthesizer& model,
                    const SampleRequest& request) {
  const greater::Schema& schema = model.encoder().schema();
  std::vector<greater::Field> fields;
  greater::Row row;
  for (const auto& [column, value] : request.conditioning) {
    fields.push_back(schema.field(schema.FieldIndex(column).ValueOrDie()));
    row.push_back(value);
  }
  Table conditions{greater::Schema(std::move(fields))};
  for (size_t r = 0; r < request.rows; ++r) (void)conditions.AppendRow(row);
  return conditions;
}

struct StepStats {
  size_t sent = 0, ok = 0, shed = 0, deadline = 0, other = 0;
  size_t within_limit = 0;
  double p50_ms = 0.0, p99_ms = 0.0, interactive_p99_ms = 0.0;
  double lag_p99_ms = 0.0, server_p50_ms = 0.0;
  double class_p50_ms[greater::kNumRequestPriorities] = {0.0, 0.0, 0.0};
  double sent_rate = 0.0;
  double goodput_rows_s = 0.0;
  bool sustained = false;
};

/// One step's outcomes, pooled over the run's rounds. Percentiles and
/// goodput are computed per kWindowNs window of due times and reported as
/// the median over all windows, so a scheduler hiccup or a burst of host
/// steal moves a few windows, not the step.
struct StepAgg {
  StepStats counts;  // sent, ok, failure classes, within_limit
  double duration_s = 0.0;
  std::vector<double> p50, p99, interactive_p99, goodput;  // per window
  std::vector<double> lag, server_ms;
  std::vector<double> by_class[greater::kNumRequestPriorities];
};

void AddSegment(const Plan& plan, const StepRun& run, StepAgg* agg) {
  constexpr double kMiss = std::numeric_limits<double>::infinity();
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(plan.duration_s * 1e9 / kWindowNs));
  std::vector<std::vector<double>> latency(windows), interactive(windows);
  std::vector<double> window_rows(windows, 0.0);
  StepStats& s = agg->counts;
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    const Outcome& o = run.outcomes[i];
    const size_t w = std::min<size_t>(windows - 1, plan.offsets_ns[i] / kWindowNs);
    ++s.sent;
    const bool ok = o.code == StatusCode::kOk;
    if (ok) {
      ++s.ok;
    } else if (o.code == StatusCode::kResourceExhausted) {
      ++s.shed;
    } else if (o.code == StatusCode::kDeadlineExceeded) {
      ++s.deadline;
    } else {
      ++s.other;
    }
    const double l = ok ? o.latency_ms : kMiss;
    latency[w].push_back(l);
    agg->by_class[static_cast<size_t>(plan.requests[i].priority)].push_back(l);
    if (plan.requests[i].priority == RequestPriority::kInteractive) {
      interactive[w].push_back(l);
    }
    if (ok && o.latency_ms <= kLatencyLimitMs) {
      ++s.within_limit;
      window_rows[w] += static_cast<double>(o.rows);
    }
    agg->lag.push_back(ToMs(o.submit_ns - o.due_ns));
    if (ok) agg->server_ms.push_back(o.server_ms);
  }
  const double window_s = plan.duration_s / static_cast<double>(windows);
  for (size_t w = 0; w < windows; ++w) {
    agg->p50.push_back(Quantile(latency[w], 0.50));
    agg->p99.push_back(Quantile(latency[w], 0.99));
    agg->interactive_p99.push_back(Quantile(interactive[w], 0.99));
    agg->goodput.push_back(window_rows[w] / window_s);
  }
  agg->duration_s += plan.duration_s;
}

StepStats Summarize(const StepAgg& agg) {
  StepStats s = agg.counts;
  s.p50_ms = Median(agg.p50);
  s.p99_ms = Median(agg.p99);
  s.interactive_p99_ms = Median(agg.interactive_p99);
  s.goodput_rows_s = Median(agg.goodput);
  s.lag_p99_ms = Quantile(agg.lag, 0.99);
  s.server_p50_ms = Quantile(agg.server_ms, 0.50);
  for (size_t c = 0; c < greater::kNumRequestPriorities; ++c) {
    s.class_p50_ms[c] = Quantile(agg.by_class[c], 0.50);
  }
  s.sent_rate = SafeRatio(static_cast<double>(s.sent), agg.duration_s);
  s.sustained = s.sent > 0 &&
                static_cast<double>(s.within_limit) >=
                    kSustainedShare * static_cast<double>(s.sent) &&
                s.lag_p99_ms <= kLatencyLimitMs;
  return s;
}

/// Which requests of a step are replayed against a direct Sample call: in
/// the traced run all of them, otherwise every kCheckStride-th plus the
/// first of every (tenant, class) pair.
std::vector<bool> CheckSubset(const Plan& plan, bool all) {
  std::vector<bool> keep(plan.requests.size(), all);
  std::vector<bool> seen(kTenants * greater::kNumRequestPriorities, false);
  for (size_t i = 0; i < plan.requests.size(); ++i) {
    const size_t pair = TenantIndex(plan.requests[i].tenant) *
                            greater::kNumRequestPriorities +
                        static_cast<size_t>(plan.requests[i].priority);
    if (i % kCheckStride == 0 || !seen[pair]) keep[i] = true;
    seen[pair] = true;
  }
  return keep;
}

struct ReplayStats {
  size_t checked = 0;
  double decode_ns = 0.0;
  double rows = 0.0;
  std::vector<double> decode_share;  // replay time / server latency
  double tokens = 0.0;
  double token_rows = 0.0;
};

/// Replays each kept request serially on directly loaded models and
/// compares the served bytes with the direct Sample call's.
void ReplayAndCheck(const std::vector<std::unique_ptr<GreatSynthesizer>>& direct,
                    const Plan& plan, const StepRun& run, const char* step,
                    Tracer* tracer, WorkloadResult* result,
                    ReplayStats* stats) {
  for (const auto& [i, served] : run.kept) {
    const SampleRequest& request = plan.requests[i];
    const GreatSynthesizer& model = *direct[TenantIndex(request.tenant)];
    Rng rng(request.seed);
    const uint64_t start = NowNs();
    greater::Result<Table> expected = [&] {
      ScopedSpan span(tracer, "synth.replay", i);
      return request.conditioning.empty()
                 ? model.SampleRows(request.rows, &rng, nullptr)
                 : model.SampleConditional(ConditionsFor(model, request), &rng);
    }();
    const uint64_t elapsed = NowNs() - start;
    ++stats->checked;
    if (!expected.ok() ||
        TableBytes(expected.ValueOrDie()) != served) {
      result->Fail(std::string("serve-zipf: served table of request ") +
                   std::to_string(i) + " at step " + step +
                   " differs from direct sampling");
      continue;
    }
    stats->decode_ns += static_cast<double>(elapsed);
    stats->rows += static_cast<double>(request.rows);
    if (run.outcomes[i].server_ms > 0.0) {
      stats->decode_share.push_back(static_cast<double>(elapsed) / 1e6 /
                                    run.outcomes[i].server_ms);
    }
    const greater::TextualEncoder& encoder = model.encoder();
    const Table& rows = expected.ValueOrDie();
    std::vector<size_t> order(rows.num_columns());
    for (size_t c = 0; c < order.size(); ++c) order[c] = c;
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      stats->tokens += static_cast<double>(
          encoder.EncodeRow(rows.GetRow(r), order).size());
      stats->token_rows += 1.0;
    }
  }
}

/// Mean fidelity of each tenant's served rows against its training table.
void ScoreFidelity(const Tenants& tenants, const ServedPool& pool,
                   double* p_mean, double* w_mean, WorkloadResult* result) {
  std::vector<double> p, w;
  for (size_t t = 0; t < kTenants; ++t) {
    if (pool.rows[t] == 0) continue;
    auto report = greater::EvaluateFidelity(tenants.tables[t], pool.tables[t]);
    if (!report.ok()) {
      result->Fail("serve-zipf: fidelity failed for tenant " +
                   std::to_string(t));
      continue;
    }
    for (double v : report.ValueOrDie().PValues()) p.push_back(v);
    for (double v : report.ValueOrDie().WDistances()) w.push_back(v);
  }
  *p_mean = Mean(p);
  *w_mean = Mean(w);
}

}  // namespace

WorkloadResult RunServeZipf(const RunArgs& args, Tracer* tracer) {
  WorkloadResult result;
  const bool traced = tracer->enabled();
  const std::string dir = args.work_dir + "/serve";
  std::filesystem::create_directories(dir);

  greater::WorkloadOptions wl;
  wl.tenant_skew.kind = greater::SkewKind::kZipfian;
  wl.tenant_skew.zipf_theta = 0.99;
  wl.value_skew.kind = greater::SkewKind::kScrambledZipfian;
  wl.conditioned_fraction = 0.3;
  wl.min_rows = 1;
  wl.max_rows = 8;
  wl.batch_fraction = 0.25;
  wl.background_fraction = 0.15;
  std::vector<greater::TenantProfile> profiles;
  for (size_t t = 0; t < kTenants; ++t) {
    profiles.push_back(greater::TenantProfile{
        "tenant" + std::to_string(t), "residence",
        std::vector<std::string>(std::begin(kCities), std::end(kCities))});
  }
  greater::WorkloadGenerator gen(wl, profiles, args.seed);
  Rng arrivals(Rng::DeriveStreamSeed(args.seed, 0xa11));

  greater::MetricsRegistry& registry = greater::MetricsRegistry::Global();
  if (traced) registry.set_max_spans(size_t{1} << 22);
  Tenants tenants;
  std::vector<std::unique_ptr<GreatSynthesizer>> direct;
  ServedPool pool;
  std::vector<double> setup_s;
  StepAgg agg[4];
  ReplayStats replay[4];
  ObsReading obs[4];
  std::vector<double> submit_us_all;
  double untraced_nominal_p50 = 0.0;

  // The ladder runs in rounds, each on a freshly set-up server with the
  // step durations divided among them; every step pools its windows over
  // the rounds. A round's set-up (fit, save and load the tenants, Start)
  // is what setup_s times. The traced run makes one round of short steps,
  // because it replays every served request.
  const size_t rounds = traced ? 1 : kRounds;
  auto step_seconds = [&](size_t s) {
    return traced ? std::min(2.0, args.seconds / 4.0)
                  : args.seconds * kLadder[s].share / static_cast<double>(rounds);
  };
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t start = NowNs();
    std::unique_ptr<SynthesisServer> server;
    {
      ScopedSpan span(tracer, "serve.setup", round);
      if (!FitAndSaveTenants(args.seed, dir, &tenants, &result)) return result;
      server = StartServer(tenants, &result);
      if (server == nullptr) return result;
    }
    setup_s.push_back(ToSeconds(NowNs() - start));
    if (round == 0) {
      for (size_t t = 0; t < kTenants; ++t) {
        direct.push_back(std::make_unique<GreatSynthesizer>());
        if (!direct.back()->Load(tenants.paths[t]).ok()) {
          result.Fail("serve-zipf: direct model load failed");
          return result;
        }
        pool.tables.emplace_back(tenants.tables[t].schema());
        pool.rows.push_back(0);
      }
    }

    // Warm-up at the nominal rate: fills decode caches, settles eviction.
    Plan warm = PlanStep(&gen, &arrivals, kLadder[kNominal].rate_rps, kWarmupS);
    (void)RunStep(server.get(), warm, std::vector<bool>(warm.requests.size()),
                  nullptr, tracer, "serve.warmup");

    for (size_t s = 0; s < 4; ++s) {
      registry.Reset();
      Plan plan = PlanStep(&gen, &arrivals, kLadder[s].rate_rps, step_seconds(s));
      std::string span_name = std::string("serve.step.") + kLadder[s].name;
      StepRun run = RunStep(server.get(), plan, CheckSubset(plan, traced),
                            &pool, tracer, span_name.c_str());
      obs[s] = ObsReading::Take();
      AddSegment(plan, run, &agg[s]);
      if (traced && obs[s].Counter("obs.spans_dropped") != 0) {
        result.Fail(std::string("serve-zipf: obs spans dropped at step ") +
                    kLadder[s].name);
      }
      for (const Outcome& o : run.outcomes) {
        submit_us_all.push_back(static_cast<double>(o.submit_end_ns - o.submit_ns) / 1e3);
      }
      ReplayAndCheck(direct, plan, run, kLadder[s].name, tracer, &result,
                     &replay[s]);
    }
    // The traced run ends with one untraced nominal step: the baseline of
    // the tracing overhead.
    if (traced) {
      Tracer off(false);
      Plan plan = PlanStep(&gen, &arrivals, kLadder[kNominal].rate_rps,
                           step_seconds(kNominal));
      StepRun run = RunStep(server.get(), plan,
                            std::vector<bool>(plan.requests.size()), nullptr,
                            &off, "serve.baseline");
      StepAgg baseline;
      AddSegment(plan, run, &baseline);
      untraced_nominal_p50 = Summarize(baseline).p50_ms;
    }
    if (!server->Shutdown().ok()) result.Fail("serve-zipf: shutdown failed");
  }

  StepStats stats[4];
  for (size_t s = 0; s < 4; ++s) {
    stats[s] = Summarize(agg[s]);
    result.attempted += stats[s].sent;
    if (stats[s].other > 0) {
      result.failed += stats[s].other;
      result.errors.push_back(std::string("serve-zipf: unexpected request "
                                          "errors at step ") +
                              kLadder[s].name);
    }
  }

  double max_rate = 0.0;
  for (size_t s = 0; s < 4; ++s) {
    if (stats[s].sustained) max_rate = stats[s].sent_rate;
  }
  for (size_t s = 0; s < 4; ++s) {
    const std::string p = std::string("serve.step.") + kLadder[s].name + ".";
    const StepStats& st = stats[s];
    result.Add(&result.report, p + "target_rps", kLadder[s].rate_rps, "1/s");
    result.Add(&result.report, p + "sent_rps", st.sent_rate, "1/s");
    result.Add(&result.report, p + "sent", static_cast<double>(st.sent), "count");
    result.Add(&result.report, p + "succeeded", static_cast<double>(st.ok), "count");
    result.Add(&result.report, p + "failed_shed", static_cast<double>(st.shed), "count");
    result.Add(&result.report, p + "failed_deadline", static_cast<double>(st.deadline), "count");
    result.Add(&result.report, p + "failed_other", static_cast<double>(st.other), "count");
    result.Add(&result.report, p + "within_limit_share",
               SafeRatio(static_cast<double>(st.within_limit),
                         static_cast<double>(st.sent)),
               "share");
    result.Add(&result.report, p + "p50_ms", st.p50_ms, "ms");
    result.Add(&result.report, p + "p99_ms", st.p99_ms, "ms");
    result.Add(&result.report, p + "lag_p99_ms", st.lag_p99_ms, "ms");
    result.Add(&result.report, p + "sustained", st.sustained ? 1.0 : 0.0, "bool");
  }
  const size_t checked = replay[0].checked + replay[1].checked +
                         replay[2].checked + replay[3].checked;
  result.Add(&result.report, "serve.replay_checked", static_cast<double>(checked), "count");

  if (!traced) {
    double p_mean = 0.0, w_mean = 0.0;
    ScoreFidelity(tenants, pool, &p_mean, &w_mean, &result);
    result.Add(&result.report, "serve.light_p50_ms", stats[kLight].p50_ms, "ms");
    result.Add(&result.report, "serve.nominal_p50_ms", stats[kNominal].p50_ms, "ms");
    result.Add(&result.report, "serve.nominal_p99_ms", stats[kNominal].p99_ms, "ms");
    result.Add(&result.report, "serve.overload_interactive_p99_ms",
               stats[kOverload].interactive_p99_ms, "ms");
    result.Add(&result.report, "serve.overload_goodput_rows_s",
               stats[kOverload].goodput_rows_s, "rows/s");
    result.Add(&result.report, "serve.max_rate_rps", max_rate, "1/s");

    result.Add(&result.end_to_end, "setup_s", Median(setup_s), "s");
    result.Add(&result.end_to_end, "p50_ms", stats[kNominal].p50_ms, "ms");
    // Goodput at `peak`, not `overload`: past capacity this server flips
    // between shedding cleanly and collapsing, so overload goodput is a
    // report figure, not a stable gate.
    result.Add(&result.end_to_end, "rows_s", stats[kPeak].goodput_rows_s, "rows/s");
    result.Add(&result.end_to_end, "peak_rss_mb", PeakRssMb(), "MiB");
    result.Add(&result.end_to_end, "fidelity_p_mean", p_mean, "p-value");
    result.Add(&result.end_to_end, "fidelity_w_mean", w_mean, "W1");
    return result;
  }

  // Per-layer figures of the traced ladder.
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    result.Add(&result.per_layer, name, value, unit);
  };
  add("serve.submit_us.p99", Quantile(submit_us_all, 0.99), "us");
  add("serve.server_p50_ms", stats[kNominal].server_p50_ms, "ms");
  add("serve.class_p50_ms.interactive", stats[kLight].class_p50_ms[0], "ms");
  add("serve.class_p50_ms.batch", stats[kLight].class_p50_ms[1], "ms");
  add("serve.class_p50_ms.background", stats[kLight].class_p50_ms[2], "ms");
  add("serve.lanes_per_batch.mean", obs[kPeak].HistogramMean("serve.lanes_per_batch"), "lanes");
  add("serve.cross_request_share",
      SafeRatio(obs[kPeak].Counter("serve.cross_request_batches"),
                obs[kPeak].Counter("serve.batches")),
      "share");
  add("serve.shed_share",
      SafeRatio(obs[kOverload].Counter("serve.shed"),
                obs[kOverload].Counter("serve.requests")),
      "share");
  add("serve.reloads_per_kreq",
      1000.0 * SafeRatio(obs[kNominal].Counter("serve.reloads"),
                         obs[kNominal].Counter("serve.requests")),
      "1/kreq");
  add("loadgen.lag_ms.p99",
      std::max({stats[kLight].lag_p99_ms, stats[kNominal].lag_p99_ms,
                stats[kPeak].lag_p99_ms}),
      "ms");
  const ReplayStats& nominal = replay[kNominal];
  add("synth.decode_us_per_row", SafeRatio(nominal.decode_ns / 1e3, nominal.rows), "us");
  add("serve.decode_share", Median(nominal.decode_share), "share");
  add("synth.attempts_per_row.serve-zipf",
      SafeRatio(obs[kNominal].Counter("synth.attempts"),
                obs[kNominal].Counter("synth.rows_emitted")),
      "attempts");
  add("synth.batch.evals_per_lane_step.serve-zipf",
      SafeRatio(obs[kNominal].Counter("synth.batch.group_evals"),
                obs[kNominal].Counter("synth.batch.lane_steps")),
      "evals");
  add("text.tokens_per_row.serve-zipf", SafeRatio(nominal.tokens, nominal.token_rows), "tokens");
  const double hits = obs[kNominal].Counter("lm.cache.hits");
  add("lm.cache.hit_ratio.serve-zipf",
      SafeRatio(hits, hits + obs[kNominal].Counter("lm.cache.misses")), "share");
  const double fast = obs[kNominal].Counter("lm.restricted_fast_path");
  add("lm.restricted_fast_share.serve-zipf",
      SafeRatio(fast, fast + obs[kNominal].Counter("lm.restricted_fallback_gather")),
      "share");
  std::vector<double> bundle_bytes;
  for (const auto& model : direct) {
    auto bytes = model->SerializeBinary();
    if (bytes.ok()) bundle_bytes.push_back(static_cast<double>(bytes.ValueOrDie().size()));
  }
  add("lm.bundle_bytes.serve-zipf", Mean(bundle_bytes), "bytes");
  add("trace.overhead.serve-zipf",
      SafeRatio(stats[kNominal].p50_ms, untraced_nominal_p50) - 1.0, "share");
  return result;
}

}  // namespace wallbench
