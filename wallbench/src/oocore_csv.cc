// Workload `oocore-csv`.
//
// Why: RunFromCsvStreaming from a Digix ads CSV (5000 users, about 15k
// rows, identifier columns excluded as the paper drops them) to a 5000-row
// output CSV, with 2 fit shards and 1 parse worker. It loads the fit ladder
// (split/parse -> encode -> count -> finalize) and streaming emission; it
// bypasses serving and crosstable. The high-cardinality user_id column
// makes emission cost grow with input size and keeps decode-cache hits
// rare, the opposite regime of serve-zipf.
//
// Each timed job runs in a child process of this binary, so the peak RSS
// read from wait4() is the job's own and not the set-up's.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/digix.h"
#include "eval/fidelity.h"
#include "lm/ngram_lm.h"
#include "stream/csv_ingest.h"
#include "stream/fit_stage.h"
#include "stream/sample_emit.h"
#include "synth/great_synthesizer.h"
#include "synth/streaming_synthesis.h"
#include "synth/textual_encoder.h"
#include "tabular/csv.h"
#include "workloads.h"

extern char** environ;

namespace wallbench {
namespace {

using greater::GreatSynthesizer;
using greater::Rng;
using greater::Table;

constexpr size_t kUsers = 5000;
constexpr size_t kSampleRows = 5000;
constexpr size_t kFitShards = 2;
constexpr size_t kParseWorkers = 1;
constexpr int kSetupRepetitions = 5;
/// Input files generated from one seed; jobs cycle over them until
/// --seconds have passed, at least kMinJobsPerInput times each.
constexpr size_t kInputs = 4;
constexpr size_t kMinJobsPerInput = 2;

greater::StreamingSynthesisOptions JobOptions() {
  greater::StreamingSynthesisOptions options;
  options.synthesizer.num_fit_shards = kFitShards;
  options.stream.num_workers = kParseWorkers;
  return options;
}

bool WriteInputCsv(uint64_t seed, const std::string& path) {
  greater::DigixOptions data;
  data.num_users = kUsers;
  data.include_identifier_columns = false;
  Rng rng(seed);
  auto generated = greater::DigixGenerator(data).Generate(&rng);
  if (!generated.ok()) return false;
  return greater::WriteCsvFile(generated.ValueOrDie().ads, path).ok();
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// What one job reports back through its result file.
struct JobReport {
  double wall_s = 0.0;
  uint64_t rows_requested = 0, rows_emitted = 0, rows_exhausted = 0;
  uint64_t ingest_in = 0, ingest_out = 0, quarantined = 0;
  double peak_rss_mb = 0.0;  // filled by the parent from wait4()
};

std::optional<JobReport> SpawnJob(const RunArgs& args, const std::string& input,
                                  const std::string& output,
                                  const std::string& result_path) {
  std::filesystem::remove(result_path);
  std::vector<std::string> argv_s = {args.self_exe, "--oocore-job", input,
                                     output, result_path};
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, args.self_exe.c_str(), nullptr, nullptr, argv.data(),
                  environ) != 0) {
    return std::nullopt;
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  JobReport report;
  std::istringstream in(Slurp(result_path));
  int ok = 0;
  in >> ok >> report.wall_s >> report.rows_requested >> report.rows_emitted >>
      report.rows_exhausted >> report.ingest_in >>
      report.ingest_out >> report.quarantined;
  if (!in || ok != 1) return std::nullopt;
  report.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return report;
}

/// Reconciliation of one job's reports.
bool Reconciles(const JobReport& r) {
  return r.rows_emitted + r.rows_exhausted == r.rows_requested &&
         r.rows_requested == kSampleRows && r.ingest_in == r.ingest_out + r.quarantined;
}

/// Fidelity of the output against the input, user_id dropped from both
/// (an identifier: almost every conditioning group is below the minimum
/// group size).
bool ScoreFidelity(const std::string& input, const std::string& output,
                   double* p_mean, double* w_mean) {
  auto real = greater::ReadCsvFile(input);
  auto synth = greater::ReadCsvFile(output);
  if (!real.ok() || !synth.ok()) return false;
  const std::vector<std::string> drop = {greater::DigixGenerator::KeyColumn()};
  auto real_view = real.ValueOrDie().DropColumns(drop);
  auto synth_view = synth.ValueOrDie().DropColumns(drop);
  if (!real_view.ok() || !synth_view.ok()) return false;
  auto report = greater::EvaluateFidelity(real_view.ValueOrDie(),
                                          synth_view.ValueOrDie());
  if (!report.ok()) return false;
  *p_mean = report.ValueOrDie().MeanPValue();
  *w_mean = report.ValueOrDie().MeanWDistance();
  return true;
}

double FileMb(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / (1024.0 * 1024.0);
}

/// The traced run: RunFromCsvStreaming in this process writes the
/// reference; then the composed path over the same input: schema -> ingest
/// -> encode -> count, each timed around its public call, then the fit and
/// emission, whose output must match the reference byte for byte.
void RunComposed(const std::string& input, const std::string& dir,
                 Tracer* tracer, WorkloadResult* result) {
  const greater::StreamingSynthesisOptions options = JobOptions();
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    result->Add(&result->per_layer, name, value, unit);
  };
  const std::string reference = dir + "/reference.csv";
  const std::string output = dir + "/composed.csv";
  ++result->attempted;
  auto run = greater::RunFromCsvStreaming(input, reference, kSampleRows, options);
  if (!run.ok() || !run.ValueOrDie().sample.Reconciles() ||
      !run.ValueOrDie().ingest.Reconciles()) {
    result->Fail("oocore-csv: RunFromCsvStreaming failed or does not reconcile");
    return;
  }

  greater::MetricsRegistry& registry = greater::MetricsRegistry::Global();
  registry.set_max_spans(size_t{1} << 22);
  registry.Reset();
  ScopedSpan composed(tracer, "oocore.composed");

  uint64_t start = NowNs();
  greater::Result<greater::Schema> schema = [&] {
    ScopedSpan span(tracer, "stream.schema");
    return greater::InferCsvSchemaStreaming(input, options.csv, options.stream,
                                            options.ingest_policy);
  }();
  add("stream.schema_s", ToSeconds(NowNs() - start), "s");
  if (!schema.ok()) {
    result->Fail("oocore-csv: schema pass failed");
    return;
  }

  // Ingest: drain the chunked reader; only Next() counts toward parse rate.
  std::vector<Table> chunks;
  uint64_t next_ns = 0;
  {
    ScopedSpan span(tracer, "stream.ingest");
    auto reader = greater::CsvChunkReader::OpenFile(
        input, options.csv, options.stream, options.ingest_policy);
    if (!reader.ok()) {
      result->Fail("oocore-csv: CsvChunkReader open failed");
      return;
    }
    for (;;) {
      start = NowNs();
      auto chunk = reader.ValueOrDie()->Next();
      next_ns += NowNs() - start;
      if (!chunk.ok()) {
        result->Fail("oocore-csv: CsvChunkReader::Next failed");
        return;
      }
      if (!chunk.ValueOrDie().has_value()) break;
      ScopedSpan convert(tracer, "stream.to_table");
      auto table = greater::CsvRowsToTable(schema.ValueOrDie(),
                                           chunk.ValueOrDie()->rows,
                                           options.csv.null_token);
      if (!table.ok()) {
        result->Fail("oocore-csv: CsvRowsToTable failed");
        return;
      }
      chunks.push_back(std::move(table).ValueOrDie());
    }
  }
  add("stream.parse_mb_s", FileMb(input) / ToSeconds(next_ns), "MiB/s");

  // Encode: the encoder built from the ingested rows, then every chunk
  // encoded with one persistent permutation state, as the fit does.
  std::vector<std::vector<greater::TokenSequence>> encoded;
  size_t vocab_size = 0;
  start = NowNs();
  {
    ScopedSpan span(tracer, "synth.encode");
    Table whole(schema.ValueOrDie());
    for (const Table& chunk : chunks) (void)whole.AppendTable(chunk);
    auto encoder = greater::TextualEncoder::Build(
        whole, options.synthesizer.encoder, options.synthesizer.prior_corpus);
    if (!encoder.ok()) {
      result->Fail("oocore-csv: encoder build failed");
      return;
    }
    vocab_size = encoder.ValueOrDie().vocab().size();
    Rng rng(options.fit_seed);
    std::vector<size_t> order;
    for (const Table& chunk : chunks) {
      auto sequences =
          encoder.ValueOrDie().EncodeTableWithOrderState(chunk, &rng, &order);
      if (!sequences.ok()) {
        result->Fail("oocore-csv: chunk encoding failed");
        return;
      }
      encoded.push_back(std::move(sequences).ValueOrDie());
    }
  }
  add("synth.encode_s", ToSeconds(NowNs() - start), "s");

  // Count: n-gram counting over the pre-encoded chunks.
  start = NowNs();
  {
    ScopedSpan span(tracer, "lm.count");
    greater::NGramLm lm(vocab_size, options.synthesizer.ngram);
    size_t next = 0;
    greater::Status counted = lm.FitStreaming(
        [&]() -> greater::Result<std::optional<std::vector<greater::TokenSequence>>> {
          if (next == encoded.size()) {
            return std::optional<std::vector<greater::TokenSequence>>();
          }
          return std::optional<std::vector<greater::TokenSequence>>(
              std::move(encoded[next++]));
        },
        kFitShards);
    if (!counted.ok()) {
      result->Fail("oocore-csv: NGramLm::FitStreaming failed");
      return;
    }
  }
  add("lm.count_s", ToSeconds(NowNs() - start), "s");

  // Fit through FitStage's restartable chunk source and emit, as the job
  // does: once untraced, the baseline of the tracing overhead, then traced.
  greater::FitStage::Options stage_options;
  stage_options.csv = options.csv;
  stage_options.stream = options.stream;
  stage_options.policy = options.ingest_policy;
  greater::SampleEmitOptions emit;
  emit.chunk_rows = options.emit_chunk_rows;
  emit.delimiter = options.csv.delimiter;
  emit.use_model_policy = true;
  Tracer off(false);
  std::optional<GreatSynthesizer> model;
  greater::Result<greater::SampleReport> emitted(greater::Status::Internal("not run"));
  ObsReading obs;
  double path_s[2] = {0.0, 0.0};
  for (int pass = 0; pass < 2; ++pass) {
    Tracer* pass_tracer = pass == 0 ? &off : tracer;
    ++result->attempted;
    const uint64_t path_start = NowNs();
    auto stage = [&] {
      ScopedSpan span(pass_tracer, "stream.fit_stage_open");
      return greater::FitStage::Open(input, stage_options);
    }();
    if (!stage.ok()) {
      result->Fail("oocore-csv: FitStage::Open failed");
      return;
    }
    model.emplace(options.synthesizer);
    const uint64_t fit_start = NowNs();
    {
      ScopedSpan span(pass_tracer, "stream.fit");
      Rng fit_rng(options.fit_seed);
      if (!model->FitStreaming(stage.ValueOrDie().ChunkSource(), &fit_rng).ok()) {
        result->Fail("oocore-csv: FitStreaming failed");
        return;
      }
    }
    const uint64_t fit_end = NowNs();
    registry.Reset();
    const uint64_t emit_start = NowNs();
    emitted = [&] {
      ScopedSpan span(pass_tracer, "synth.emit");
      return greater::SampleRowsToCsvStreaming(*model, kSampleRows,
                                               options.sample_seed, output, emit);
    }();
    const uint64_t end = NowNs();
    obs = ObsReading::Take();
    path_s[pass] = ToSeconds(end - path_start);
    if (!emitted.ok() || !emitted.ValueOrDie().Reconciles()) {
      result->Fail("oocore-csv: composed emission failed or does not reconcile");
      return;
    }
    if (Slurp(output) != Slurp(reference)) {
      result->Fail("oocore-csv: composed path output differs from RunFromCsvStreaming's");
    }
    if (pass == 1) {
      add("stream.fit_s", ToSeconds(fit_end - fit_start), "s");
      add("synth.emit_rows_s", kSampleRows / ToSeconds(end - emit_start), "rows/s");
    }
  }
  if (obs.Counter("obs.spans_dropped") != 0) {
    result->Fail("oocore-csv: obs spans dropped");
  }
  const greater::SampleReport& report = emitted.ValueOrDie();
  add("synth.attempts_per_row.oocore-csv",
      SafeRatio(static_cast<double>(report.attempts),
                static_cast<double>(report.rows_emitted)),
      "attempts");
  add("synth.batch.evals_per_lane_step.oocore-csv",
      SafeRatio(obs.Counter("synth.batch.group_evals"),
                obs.Counter("synth.batch.lane_steps")),
      "evals");
  const double hits = obs.Counter("lm.cache.hits");
  add("lm.cache.hit_ratio.oocore-csv",
      SafeRatio(hits, hits + obs.Counter("lm.cache.misses")), "share");
  const double fast = obs.Counter("lm.restricted_fast_path");
  add("lm.restricted_fast_share.oocore-csv",
      SafeRatio(fast, fast + obs.Counter("lm.restricted_fallback_gather")), "share");
  auto bytes = model->SerializeBinary();
  add("lm.bundle_bytes.oocore-csv",
      bytes.ok() ? static_cast<double>(bytes.ValueOrDie().size()) : 0.0, "bytes");

  double tokens = 0.0, rows = 0.0;
  auto synthetic = greater::ReadCsvFile(output);
  if (synthetic.ok()) {
    const Table& table = synthetic.ValueOrDie();
    std::vector<size_t> order(table.num_columns());
    for (size_t c = 0; c < order.size(); ++c) order[c] = c;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      tokens += static_cast<double>(model->encoder().EncodeRow(table.GetRow(r), order).size());
      rows += 1.0;
    }
  }
  add("text.tokens_per_row.oocore-csv", SafeRatio(tokens, rows), "tokens");
  add("trace.overhead.oocore-csv", SafeRatio(path_s[1], path_s[0]) - 1.0, "share");
}

}  // namespace

int OocoreJobMain(const std::string& input, const std::string& output,
                  const std::string& result_path) {
  const uint64_t start = NowNs();
  auto run = greater::RunFromCsvStreaming(input, output, kSampleRows, JobOptions());
  const double wall_s = ToSeconds(NowNs() - start);
  if (!run.ok()) {
    std::fprintf(stderr, "oocore job failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const greater::StreamingSynthesisResult& r = run.ValueOrDie();
  std::ofstream out(result_path, std::ios::trunc);
  out.precision(17);
  out << 1 << ' ' << wall_s << ' ' << r.sample.rows_requested << ' '
      << r.sample.rows_emitted << ' ' << r.sample.rows_exhausted << ' '
      << r.ingest.rows_in << ' '
      << r.ingest.rows_out << ' ' << r.ingest.quarantined << '\n';
  return out ? 0 : 1;
}

WorkloadResult RunOocoreCsv(const RunArgs& args, Tracer* tracer) {
  WorkloadResult result;
  const bool traced = tracer->enabled();
  const std::string dir = args.work_dir + "/oocore";
  std::filesystem::create_directories(dir);
  const std::string result_path = dir + "/job.result";
  const size_t inputs = traced ? 1 : kInputs;
  std::vector<std::string> input(inputs), reference(inputs);
  for (size_t k = 0; k < inputs; ++k) {
    input[k] = dir + "/input" + std::to_string(k) + ".csv";
    reference[k] = dir + "/reference" + std::to_string(k) + ".csv";
  }

  std::vector<double> setup_s;
  for (int rep = 0; rep < (traced ? 1 : kSetupRepetitions); ++rep) {
    const uint64_t start = NowNs();
    ScopedSpan span(tracer, "oocore.setup");
    for (size_t k = 0; k < inputs; ++k) {
      if (!WriteInputCsv(Rng::DeriveStreamSeed(args.seed, k), input[k])) {
        result.Fail("oocore-csv: writing the input CSV failed");
        return result;
      }
    }
    setup_s.push_back(ToSeconds(NowNs() - start));
  }

  if (traced) {
    RunComposed(input[0], dir, tracer, &result);
    return result;
  }

  // Jobs cycle over the inputs; every later job on an input must write the
  // first one's bytes.
  std::vector<std::string> reference_bytes(inputs);
  std::vector<std::vector<double>> wall_s(inputs), rss_mb(inputs);
  const uint64_t run_start = NowNs();
  for (size_t job = 0;; ++job) {
    if (job >= kMinJobsPerInput * inputs &&
        ToSeconds(NowNs() - run_start) >= args.seconds) {
      break;
    }
    const size_t k = job % inputs;
    const bool first = job < inputs;
    const std::string output = first ? reference[k] : dir + "/output.csv";
    ++result.attempted;
    std::optional<JobReport> report = [&] {
      ScopedSpan span(tracer, "oocore.job", job);
      return SpawnJob(args, input[k], output, result_path);
    }();
    const std::string where = "oocore-csv: job " + std::to_string(job);
    if (!report.has_value()) {
      result.Fail(where + " failed");
      continue;
    }
    if (!Reconciles(*report)) {
      result.Fail(where + " reports do not reconcile");
      continue;
    }
    if (first) {
      reference_bytes[k] = Slurp(output);
    } else if (Slurp(output) != reference_bytes[k]) {
      result.Fail(where + " output differs from the first job's on its input");
      continue;
    }
    wall_s[k].push_back(report->wall_s);
    rss_mb[k].push_back(report->peak_rss_mb);
  }


  // Per input the median job, then the mean over inputs: the figures speak
  // for the input shape rather than for one generated file.
  std::vector<double> wall, rss, p_means, w_means;
  for (size_t k = 0; k < inputs; ++k) {
    if (wall_s[k].empty()) continue;
    wall.push_back(Median(wall_s[k]));
    rss.push_back(Median(rss_mb[k]));
    double p_mean = 0.0, w_mean = 0.0;
    if (!ScoreFidelity(input[k], reference[k], &p_mean, &w_mean)) {
      result.Fail("oocore-csv: fidelity scoring failed");
      continue;
    }
    p_means.push_back(p_mean);
    w_means.push_back(w_mean);
  }
  const double job_s = Mean(wall);
  result.Add(&result.report, "oocore.wall_s", job_s, "s");
  result.Add(&result.report, "oocore.peak_rss_mb", Mean(rss), "MiB");
  result.Add(&result.report, "oocore.input_mb", FileMb(input[0]), "MiB");
  result.Add(&result.report, "oocore.jobs", static_cast<double>(result.attempted), "count");

  result.Add(&result.end_to_end, "setup_s", Median(setup_s), "s");
  result.Add(&result.end_to_end, "p50_ms", job_s * 1e3, "ms");
  result.Add(&result.end_to_end, "rows_s", kSampleRows / job_s, "rows/s");
  result.Add(&result.end_to_end, "peak_rss_mb", Mean(rss), "MiB");
  result.Add(&result.end_to_end, "fidelity_p_mean", Mean(p_means), "p-value");
  result.Add(&result.end_to_end, "fidelity_w_mean", Mean(w_means), "W1");
  return result;
}

}  // namespace wallbench
