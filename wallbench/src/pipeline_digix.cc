// Workload `pipeline-digix`.
//
// Why: the paper's own workload and the only one that loads src/crosstable
// and src/semantic. Eight Digix trials run through MultiTablePipeline::Run
// with PipelineOptions defaults except semantic = kDifferentiability:
// GReaTER median-threshold fusion, in-memory Fit and per-row decode. It
// uses the in-memory Fit twin beside oocore-csv's FitStreaming, so deleting
// either twin shows on both. It bypasses serving and CSV ingest. It is also
// the workload whose quality number the paper reports: fidelity is scored
// with EvaluateFidelity against BuildRealFlatView, outside the timed window.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crosstable/pipeline.h"
#include "datagen/digix.h"
#include "eval/fidelity.h"
#include "obs/span.h"
#include "synth/textual_encoder.h"
#include "tabular/csv.h"
#include "workloads.h"

namespace wallbench {
namespace {

using greater::DigixDataset;
using greater::DigixGenerator;
using greater::MultiTablePipeline;
using greater::PipelineResult;
using greater::Rng;
using greater::Table;

constexpr size_t kTrials = 8;
/// Groups of kTrials trials generated from one seed: the run averages over
/// them so its figures speak for the Digix shape, not for one draw.
constexpr size_t kGroups = 4;
constexpr int kSetupRepetitions = 5;
/// The run is timed in sets of kTrials, cycling over the groups; each group
/// runs at least this many sets.
constexpr size_t kMinSetsPerGroup = 2;
/// The stage.* spans must cover pipeline.run to within this share.
constexpr double kStageCoverageTolerance = 0.05;

const char* kStages[] = {"validate-input", "enhancement", "parent-extract",
                         "semantic-enhance", "flatten", "independence",
                         "reduce", "fit", "sample", "inverse-map"};

greater::PipelineOptions Options() {
  greater::PipelineOptions options;
  options.semantic = greater::SemanticMode::kDifferentiability;
  return options;
}

uint64_t TrialSeed(uint64_t seed, size_t trial) {
  return Rng::DeriveStreamSeed(seed, 1000 + trial);
}

struct Trial {
  DigixDataset data;
  Table real_flat;
};

struct TrialRun {
  double wall_s = 0.0;
  greater::Result<PipelineResult> result{greater::Status::Internal("not run")};
};

TrialRun RunTrial(const MultiTablePipeline& pipeline, const Trial& trial,
                  uint64_t seed) {
  TrialRun run;
  Rng rng(seed);
  const uint64_t start = NowNs();
  run.result = pipeline.Run(trial.data.ads, trial.data.feeds,
                            DigixGenerator::KeyColumn(), &rng);
  run.wall_s = ToSeconds(NowNs() - start);
  return run;
}

/// Output checks of one trial: the sample report reconciles and the
/// synthetic flat view has the real flat view's schema.
bool CheckTrial(const TrialRun& run, const Trial& trial, size_t index,
                WorkloadResult* result) {
  const std::string where = "pipeline-digix trial " + std::to_string(index);
  if (!run.result.ok()) {
    result->Fail(where + ": " + run.result.status().ToString());
    return false;
  }
  const PipelineResult& out = run.result.ValueOrDie();
  if (!out.sample_report.Reconciles()) {
    result->Fail(where + ": sample_report does not reconcile");
    return false;
  }
  if (!(out.synthetic_flat.schema() == trial.real_flat.schema())) {
    result->Fail(where + ": synthetic_flat schema differs from the real view");
    return false;
  }
  return true;
}

}  // namespace

WorkloadResult RunPipelineDigix(const RunArgs& args, Tracer* tracer) {
  WorkloadResult result;
  const bool traced = tracer->enabled();
  const MultiTablePipeline pipeline(Options());

  // Set-up: generate every group's trials and their real flat views,
  // several times; the last generation is measured.
  const size_t groups = traced ? 1 : kGroups;
  std::vector<std::vector<Trial>> trials(groups);
  std::vector<double> setup_s;
  for (int rep = 0; rep < (traced ? 1 : kSetupRepetitions); ++rep) {
    const uint64_t start = NowNs();
    ScopedSpan span(tracer, "pipeline.setup");
    for (size_t g = 0; g < groups; ++g) {
      DigixGenerator generator{greater::DigixOptions()};
      Rng rng(Rng::DeriveStreamSeed(args.seed, g));
      auto generated = generator.GenerateTrials(kTrials, &rng);
      if (!generated.ok()) {
        result.Fail("pipeline-digix: trial generation failed");
        return result;
      }
      trials[g].clear();
      for (DigixDataset& data : generated.ValueOrDie()) {
        auto real = pipeline.BuildRealFlatView(data.ads, data.feeds,
                                               DigixGenerator::KeyColumn());
        if (!real.ok()) {
          result.Fail("pipeline-digix: BuildRealFlatView failed");
          return result;
        }
        trials[g].push_back(Trial{std::move(data), std::move(real).ValueOrDie()});
      }
    }
    setup_s.push_back(ToSeconds(NowNs() - start));
  }

  // Sets of kTrials cycle over the groups. A group's first set is kept for
  // the fidelity score and the determinism check of its later sets.
  std::vector<std::vector<std::string>> first_csv(
      groups, std::vector<std::string>(kTrials));
  std::vector<std::vector<Table>> first_flat(groups, std::vector<Table>(kTrials));
  std::vector<std::vector<double>> set_rows_s(groups);
  std::vector<double> trial_ms;
  double set_wall_s = 0.0;  // Run wall time of the last set
  const uint64_t run_start = NowNs();
  for (size_t set = 0;; ++set) {
    // The traced run's first set is the determinism reference and warm-up,
    // its second the untraced baseline of the tracing overhead.
    if (traced ? set >= 2
               : (set >= kMinSetsPerGroup * groups &&
                  ToSeconds(NowNs() - run_start) >= args.seconds)) {
      break;
    }
    const size_t g = set % groups;
    double rows = 0.0, wall = 0.0;
    for (size_t t = 0; t < kTrials; ++t) {
      TrialRun run = RunTrial(pipeline, trials[g][t],
                              TrialSeed(args.seed, g * kTrials + t));
      ++result.attempted;
      if (!CheckTrial(run, trials[g][t], t, &result)) continue;
      const Table& flat = run.result.ValueOrDie().synthetic_flat;
      std::string csv = greater::WriteCsvString(flat);
      if (set < groups) {
        first_csv[g][t] = std::move(csv);
        first_flat[g][t] = flat;
      } else if (csv != first_csv[g][t]) {
        result.Fail("pipeline-digix trial " + std::to_string(t) +
                    ": rerun with the same seed differs");
      }
      rows += static_cast<double>(flat.num_rows());
      wall += run.wall_s;
      trial_ms.push_back(run.wall_s * 1e3);
    }
    set_rows_s[g].push_back(SafeRatio(rows, wall));
    set_wall_s = wall;
  }

  std::vector<double> p_values, w_distances, fidelity_s;
  for (size_t g = 0; g < groups; ++g) {
    for (size_t t = 0; t < kTrials; ++t) {
      if (first_flat[g][t].num_rows() == 0) continue;
      const uint64_t start = NowNs();
      auto report = [&] {
        ScopedSpan span(tracer, "eval.fidelity", g * kTrials + t);
        return greater::EvaluateFidelity(trials[g][t].real_flat, first_flat[g][t]);
      }();
      fidelity_s.push_back(ToSeconds(NowNs() - start));
      if (!report.ok()) {
        result.Fail("pipeline-digix: EvaluateFidelity failed");
        continue;
      }
      for (double v : report.ValueOrDie().PValues()) p_values.push_back(v);
      for (double v : report.ValueOrDie().WDistances()) w_distances.push_back(v);
    }
  }

  if (!traced) {
    // Per group the median set, then the mean over groups.
    std::vector<double> group_rows_s;
    for (const std::vector<double>& rates : set_rows_s) {
      group_rows_s.push_back(Median(rates));
    }
    const double rows_s = Mean(group_rows_s);
    result.Add(&result.report, "pipeline.rows_s", rows_s, "rows/s");
    result.Add(&result.report, "pipeline.fidelity_p_mean", Mean(p_values), "p-value");
    result.Add(&result.report, "pipeline.fidelity_w_mean", Mean(w_distances), "W1");
    result.Add(&result.report, "pipeline.trial_runs", static_cast<double>(trial_ms.size()), "count");

    result.Add(&result.end_to_end, "setup_s", Median(setup_s), "s");
    result.Add(&result.end_to_end, "p50_ms", Median(trial_ms), "ms");
    result.Add(&result.end_to_end, "rows_s", rows_s, "rows/s");
    result.Add(&result.end_to_end, "peak_rss_mb", PeakRssMb(), "MiB");
    result.Add(&result.end_to_end, "fidelity_p_mean", Mean(p_values), "p-value");
    result.Add(&result.end_to_end, "fidelity_w_mean", Mean(w_distances), "W1");
    return result;
  }

  // Traced set: the library's own stage.* spans and obs counters, read per
  // trial from a freshly reset registry.
  greater::MetricsRegistry& registry = greater::MetricsRegistry::Global();
  registry.set_max_spans(size_t{1} << 22);
  std::map<std::string, double> stage_ms;
  double traced_wall = 0.0, cache_hits = 0.0, cache_misses = 0.0;
  double fast = 0.0, gather = 0.0, attempts = 0.0, emitted = 0.0;
  double fused = 0.0, flattened = 0.0, tokens = 0.0, token_rows = 0.0;
  for (size_t t = 0; t < kTrials; ++t) {
    registry.Reset();
    TrialRun run;
    {
      ScopedSpan span(tracer, "pipeline.trial", t);
      run = RunTrial(pipeline, trials[0][t], TrialSeed(args.seed, t));
    }
    traced_wall += run.wall_s;
    ++result.attempted;
    if (!CheckTrial(run, trials[0][t], t, &result)) continue;
    const PipelineResult& out = run.result.ValueOrDie();
    if (greater::WriteCsvString(out.synthetic_flat) != first_csv[0][t]) {
      result.Fail("pipeline-digix trial " + std::to_string(t) +
                  ": traced run differs from the untraced one");
    }
    ObsReading obs = ObsReading::Take();
    if (obs.Counter("obs.spans_dropped") != 0) {
      result.Fail("pipeline-digix: obs spans dropped");
    }
    uint64_t run_id = 0, run_ns = 0;
    for (const greater::SpanRecord& span : obs.snapshot.spans) {
      if (span.name == "pipeline.run") {
        run_id = span.id;
        run_ns = span.duration_ns;
      }
    }
    uint64_t stages_ns = 0;
    for (const auto& [name, agg] :
         greater::AggregateSpans(obs.snapshot.spans, run_id)) {
      if (name.rfind("stage.", 0) != 0) continue;
      stages_ns += agg.total_ns;
      stage_ms[name.substr(6)] += ToMs(agg.total_ns) / kTrials;
    }
    const double coverage = SafeRatio(static_cast<double>(stages_ns),
                                      static_cast<double>(run_ns));
    if (run_id == 0 || coverage < 1.0 - kStageCoverageTolerance ||
        coverage > 1.0 + 1e-9) {
      result.Fail("pipeline-digix: stage.* spans cover " +
                  std::to_string(coverage) + " of pipeline.run");
    }
    cache_hits += obs.Counter("lm.cache.hits");
    cache_misses += obs.Counter("lm.cache.misses");
    fast += obs.Counter("lm.restricted_fast_path");
    gather += obs.Counter("lm.restricted_fallback_gather");
    attempts += static_cast<double>(out.sample_report.attempts);
    emitted += static_cast<double>(out.sample_report.rows_emitted);
    fused += static_cast<double>(out.fused_training_rows);
    flattened += static_cast<double>(out.flattened_rows);
    auto encoder = greater::TextualEncoder::Build(out.synthetic_flat);
    if (encoder.ok()) {
      std::vector<size_t> order(out.synthetic_flat.num_columns());
      for (size_t c = 0; c < order.size(); ++c) order[c] = c;
      for (size_t r = 0; r < out.synthetic_flat.num_rows(); ++r) {
        tokens += static_cast<double>(
            encoder.ValueOrDie().EncodeRow(out.synthetic_flat.GetRow(r), order).size());
        token_rows += 1.0;
      }
    }
  }

  auto add = [&](const std::string& name, double value, const std::string& unit) {
    result.Add(&result.per_layer, name, value, unit);
  };
  for (const char* stage : kStages) {
    add(std::string("pipeline.stage_ms.") + stage, stage_ms[stage], "ms");
  }
  add("pipeline.reduction_ratio", SafeRatio(fused, flattened), "share");
  add("eval.fidelity_s", Mean(fidelity_s), "s");
  add("synth.attempts_per_row.pipeline-digix", SafeRatio(attempts, emitted), "attempts");
  add("text.tokens_per_row.pipeline-digix", SafeRatio(tokens, token_rows), "tokens");
  add("lm.cache.hit_ratio.pipeline-digix",
      SafeRatio(cache_hits, cache_hits + cache_misses), "share");
  add("lm.restricted_fast_share.pipeline-digix", SafeRatio(fast, fast + gather), "share");
  add("trace.overhead.pipeline-digix", SafeRatio(traced_wall, set_wall_s) - 1.0,
      "share");
  return result;
}

}  // namespace wallbench
