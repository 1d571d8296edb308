// Durability and recovery walkthrough: train a synthesizer, persist it as
// a checksummed artifact bundle, reload it in a "fresh process" and show
// the bitwise-identical sample stream; then run the multi-table pipeline
// twice against a checkpoint directory to demonstrate stage-level resume,
// and finally sample through the RecoverySupervisor while faults fire.
// Pass --batch-rows=N to decode N lanes per lockstep chunk — all three
// demonstrations (reload identity, checkpoint resume, supervised
// recovery) hold unchanged because output is bitwise-identical at every
// chunk size.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/fault.h"
#include "crosstable/pipeline.h"
#include "datagen/digix.h"
#include "obs/metrics.h"
#include "synth/great_synthesizer.h"
#include "synth/recovery_supervisor.h"
#include "tabular/csv.h"

using namespace greater;

namespace {

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name).Value();
}

void CheckOk(const Status& status) {
  if (!status.ok()) internal::DieOnBadResult(status);
}

}  // namespace

int main(int argc, char** argv) {
  size_t batch_rows = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--batch-rows=", 13) == 0) {
      batch_rows =
          static_cast<size_t>(std::strtoull(argv[i] + 13, nullptr, 10));
    } else if (std::strcmp(argv[i], "--batch-rows") == 0 && i + 1 < argc) {
      batch_rows = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--batch-rows N]\n", argv[0]);
      return 2;
    }
  }

  std::filesystem::path work =
      std::filesystem::temp_directory_path() / "greater_durable_example";
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);

  Rng data_rng(42);
  DigixOptions data_options;
  data_options.num_users = 32;
  DigixDataset data =
      DigixGenerator(data_options).Generate(&data_rng).ValueOrDie();

  // ---- 1. Save -> Load -> identical samples ----------------------------
  std::printf("== durable model bundle ==\n");
  GreatSynthesizer::Options options;
  options.encoder.permutations_per_row = 2;
  options.batch_rows = batch_rows;
  GreatSynthesizer synth(options);
  Rng fit_rng(7);
  CheckOk(synth.Fit(data.ads, &fit_rng));

  std::string bundle = (work / "ads_model.bin").string();
  CheckOk(synth.Save(bundle));
  std::printf("saved %s (%ju bytes)\n", bundle.c_str(),
              static_cast<uintmax_t>(std::filesystem::file_size(bundle)));

  GreatSynthesizer restored;  // stands in for a fresh process
  CheckOk(restored.Load(bundle));
  Rng rng_a(99), rng_b(99);
  Table from_memory = synth.Sample(8, &rng_a).ValueOrDie();
  Table from_disk = restored.Sample(8, &rng_b).ValueOrDie();
  std::printf("same seed, in-memory vs. reloaded: %s\n\n",
              from_memory == from_disk ? "bitwise identical"
                                       : "MISMATCH (bug!)");

  // ---- 2. Stage-level pipeline resume ----------------------------------
  std::printf("== pipeline checkpointing ==\n");
  PipelineOptions pipeline_options;
  pipeline_options.synth.encoder.permutations_per_row = 2;
  pipeline_options.synth.batch_rows = batch_rows;
  pipeline_options.checkpoint_dir = (work / "ckpt").string();
  MultiTablePipeline pipeline(pipeline_options);

  Rng run1_rng(1);
  PipelineResult cold =
      pipeline.Run(data.ads, data.feeds, "user_id", &run1_rng).ValueOrDie();
  std::printf("cold run: %zu synthetic rows, %ju stage checkpoints stored\n",
              cold.synthetic_flat.num_rows(),
              static_cast<uintmax_t>(CounterValue("ckpt.stage_stores")));

  // Rerunning with the same inputs resumes every stage from disk — a
  // crashed job restarted with the same configuration does exactly this.
  uint64_t hits_before = CounterValue("ckpt.stage_hits");
  Rng run2_rng(1);
  PipelineResult warm =
      pipeline.Run(data.ads, data.feeds, "user_id", &run2_rng).ValueOrDie();
  std::printf("warm run: %ju stage hits, output %s\n\n",
              static_cast<uintmax_t>(CounterValue("ckpt.stage_hits") -
                                     hits_before),
              cold.synthetic_flat == warm.synthetic_flat
                  ? "byte-identical to cold run"
                  : "MISMATCH (bug!)");

  // ---- 3. Supervised sampling under injected faults --------------------
  std::printf("== recovery supervisor ==\n");
  RecoveryOptions recovery;
  recovery.max_retries = 2;
  recovery.backoff_initial_ms = 1;  // keep the demo snappy
  RecoverySupervisor supervisor(&synth, recovery);

  // A transient fault: the first sampled row fails once, then the point
  // goes quiet. The supervisor retries and the call still succeeds.
  FaultSpec transient;
  transient.code = StatusCode::kResourceExhausted;
  transient.message = "simulated transient sampling failure";
  transient.max_fires = 1;
  {
    ScopedFault fault("synth.sample_row", transient);
    Rng rng(5);
    SampleReport report;
    Table out = supervisor.Sample(8, &rng, &report).ValueOrDie();
    std::printf("transient fault: recovered after retry, %zu/%zu rows, "
                "report %s\n",
                out.num_rows(), report.rows_requested,
                report.Reconciles() ? "reconciles" : "does not reconcile");
  }
  std::printf("recovery.retries=%ju recovery.recovered=%ju\n",
              static_cast<uintmax_t>(CounterValue("recovery.retries")),
              static_cast<uintmax_t>(CounterValue("recovery.recovered")));

  std::filesystem::remove_all(work);
  return 0;
}
