// End-to-end GReaTER on a DIGIX-like multi-table CTR dataset: generate
// the advertisement + feeds tables, run the full pipeline (parent
// extraction -> semantic enhancement -> cross-table connecting ->
// parent-child synthesis -> inverse mapping), and score fidelity against
// the two baselines of the paper's Sec. 4.2.

// Pass --metrics-out=FILE (or --metrics-out FILE) to dump the full
// observability snapshot — pipeline/stage spans, sampler counters, latency
// histograms — as JSON after the three setups have run. Pass
// --batch-rows=N to decode N lanes per lockstep chunk instead of the
// default one (output is bitwise-identical at every N, see DESIGN.md
// "Batched columnar decode").

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "crosstable/pipeline.h"
#include "datagen/digix.h"
#include "eval/fidelity.h"
#include "obs/metrics.h"

using namespace greater;

namespace {

void RunSetup(const char* label, FusionMethod fusion, size_t batch_rows,
              const DigixDataset& data) {
  PipelineOptions options;
  options.fusion = fusion;
  options.semantic = SemanticMode::kUnderstandability;
  options.synth.encoder.permutations_per_row = 2;
  options.synth.max_training_sequences = 700;
  if (batch_rows > 0) options.synth.batch_rows = batch_rows;
  MultiTablePipeline pipeline(options);

  Rng rng(7);
  auto real = pipeline.BuildRealFlatView(data.ads, data.feeds, "user_id");
  auto result = pipeline.Run(data.ads, data.feeds, "user_id", &rng);
  if (!real.ok() || !result.ok()) {
    std::fprintf(stderr, "%s failed\n", label);
    return;
  }
  auto fid = EvaluateFidelity(real->UniqueRows(), result->synthetic_flat);
  if (!fid.ok()) return;
  std::printf("%-34s synthetic rows %5zu | mean p-value %.3f | mean "
              "W-distance %.3f\n",
              label, result->synthetic_flat.num_rows(), fid->MeanPValue(),
              fid->MeanWDistance());
  if (fusion == FusionMethod::kGreaterMedianThreshold) {
    std::printf("   contextual (parent) columns :");
    for (const auto& name : result->contextual_columns) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n   identifiers dropped         :");
    for (const auto& name : result->identifier_columns_dropped) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n   independent columns         :");
    for (const auto& name : result->independence.independent) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n   semantically mapped columns : %zu\n",
                result->semantically_mapped_columns.size());
    std::printf("   dimension reduction         : %zu -> %zu rows (-%.0f%%)\n",
                result->reduction.rows_before, result->reduction.rows_after,
                100.0 * result->reduction.RowReductionRatio());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out;
  size_t batch_rows = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strncmp(argv[i], "--batch-rows=", 13) == 0) {
      batch_rows = static_cast<size_t>(std::strtoull(argv[i] + 13, nullptr, 10));
    } else if (std::strcmp(argv[i], "--batch-rows") == 0 && i + 1 < argc) {
      batch_rows = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--metrics-out FILE] [--batch-rows N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (batch_rows > 1) {
    std::printf("sampling through the batched decode engine (batch_rows=%zu)\n",
                batch_rows);
  }

  std::printf("generating a DIGIX-like multi-table CTR trial...\n");
  Rng rng(2026);
  DigixGenerator gen;
  auto data = gen.Generate(&rng);
  if (!data.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }
  std::printf("  ads   table: %zu rows x %zu cols\n", data->ads.num_rows(),
              data->ads.num_columns());
  std::printf("  feeds table: %zu rows x %zu cols\n\n",
              data->feeds.num_rows(), data->feeds.num_columns());

  RunSetup("GReaTER (median threshold)", FusionMethod::kGreaterMedianThreshold,
           batch_rows, *data);
  RunSetup("DEREC baseline", FusionMethod::kDerecIndependent, batch_rows,
           *data);
  RunSetup("Direct flattening baseline", FusionMethod::kDirectFlatten,
           batch_rows, *data);

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    out << MetricsRegistry::Global().ToJson(MetricsRegistry::JsonMode::kFull)
        << "\n";
    if (!out) {
      std::fprintf(stderr, "failed to write metrics to '%s'\n",
                   metrics_out.c_str());
      return 1;
    }
    std::printf("\nmetrics snapshot written to %s\n", metrics_out.c_str());
  }
  return 0;
}
