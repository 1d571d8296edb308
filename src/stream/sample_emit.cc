#include "stream/sample_emit.h"

#include <algorithm>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/artifact_io.h"
#include "common/checkpoint_store.h"
#include "common/fault.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "synth/batch_decode.h"
#include "tabular/csv.h"
#include "tabular/table_builder.h"

namespace greater {
namespace {

// Decodes a stored emission chunk into `text` and `report`, refusing a
// document whose report does not account for exactly the chunk's rows or
// whose CSV text cannot hold the rows the report emitted (every rendered
// row ends in a newline; quoted cells may add more).
Status DecodeEmitChunk(const ArtifactReader& doc, size_t rows_requested,
                       std::string* text, SampleReport* report) {
  GREATER_ASSIGN_OR_RETURN(std::string_view csv, doc.Chunk("csv"));
  GREATER_ASSIGN_OR_RETURN(std::string_view report_bytes, doc.Chunk("report"));
  ByteReader r(report_bytes);
  SampleReport stored;
  GREATER_RETURN_NOT_OK(ReadSampleReport(&r, &stored));
  GREATER_RETURN_NOT_OK(r.ExpectEnd());
  if (stored.rows_requested != rows_requested || !stored.Reconciles() ||
      static_cast<size_t>(std::count(csv.begin(), csv.end(), '\n')) <
          stored.rows_emitted ||
      (stored.rows_emitted == 0) != csv.empty() ||
      (!csv.empty() && csv.back() != '\n')) {
    return Status::DataLoss("emission chunk does not match its report");
  }
  text->assign(csv);
  *report = stored;
  return Status::OK();
}

Status WriteBlock(std::ofstream* out, const std::string& bytes,
                  const std::string& path) {
  out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out->flush();
  if (!out->good()) {
    return Status::Internal("I/O error writing CSV '" + path + "'");
  }
  return Status::OK();
}

}  // namespace

Result<SampleReport> SampleRowsToCsvStreaming(
    const GreatSynthesizer& model, size_t n, uint64_t seed,
    const std::string& output_path, const SampleEmitOptions& options) {
  Span span("stream.emit");
  if (!model.fitted()) {
    return Status::FailedPrecondition(
        "SampleRowsToCsvStreaming requires a fitted synthesizer");
  }
  const size_t chunk_rows = std::max<size_t>(1, options.chunk_rows);
  const SamplePolicy policy =
      options.use_model_policy ? model.options().policy : options.policy;

  MetricsRegistry& metrics = MetricsRegistry::Global();
  Counter& chunks_counter = metrics.GetCounter("stream.emit.chunks");
  Counter& hits_counter = metrics.GetCounter("stream.emit.checkpoint_hits");
  Counter& rows_counter = metrics.GetCounter("stream.emit.rows");

  // The chain covers everything that determines a chunk's bytes: the
  // trained model, the draw seed, and every emission option. Any change
  // flips every chunk key, so stale checkpoints can never replay. Chunk
  // keys are read only by the checkpoint store, so without one the model
  // is not serialized just to feed them.
  CheckpointStore ckpt(CheckpointScope::kChunk, options.checkpoint_dir,
                       "oocore.emit");
  if (ckpt.enabled()) {
    GREATER_ASSIGN_OR_RETURN(std::string model_bytes,
                             model.SerializeBinary());
    ckpt.Mix(model_bytes);
    ByteWriter fp;
    fp.PutU64(n);
    fp.PutU64(seed);
    fp.PutU64(chunk_rows);
    fp.PutU8(static_cast<uint8_t>(options.delimiter));
    fp.PutBool(policy == SamplePolicy::kLenient);
    ckpt.Mix(fp.bytes());
  }

  // Same base derivation as Sample: `Rng r(seed)` would hand this base to
  // every chunk, and lane i derives its private stream from (base, i) —
  // chunking cannot shift any row's draws.
  uint64_t base = 0;
  if (n > 0) {
    Rng seed_rng(seed);
    base = GreatSynthesizer::DeriveSampleBase(&seed_rng);
  }

  // One engine for the whole emission; it builds its private decode cache
  // from the model's options and keeps it warm across chunks.
  BatchDecodeEngine engine(model);

  // The file is rewritten from scratch on every run: a partial file left
  // by a killed run is overwritten, and completed chunks replay from the
  // checkpoint store, so the finished file is byte-identical to an
  // uninterrupted run.
  std::ofstream out(output_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open CSV '" + output_path +
                            "' for writing");
  }
  std::string text;
  AppendCsvHeader(model.encoder().schema(), options.delimiter, &text);
  GREATER_RETURN_NOT_OK(WriteBlock(&out, text, output_path));

  SampleReport total;
  TableBuilder builder(model.encoder().schema());
  std::vector<Result<Row>> rows;
  uint64_t chunk_index = 0;
  for (size_t begin = 0; begin < n; begin += chunk_rows, ++chunk_index) {
    const size_t end = std::min(n, begin + chunk_rows);
    chunks_counter.Increment();

    ByteWriter descriptor;
    descriptor.PutU64(chunk_index);
    descriptor.PutU64(begin);
    descriptor.PutU64(end);
    uint64_t key = ckpt.Mix(descriptor.bytes());

    SampleReport chunk_report;
    text.clear();
    const std::string name = std::to_string(chunk_index);
    const bool replayed =
        ckpt.enabled() &&
        ckpt.TryRestore(name, key, [&](const ArtifactReader& doc) {
          return DecodeEmitChunk(doc, end - begin, &text, &chunk_report);
        });
    if (replayed) hits_counter.Increment();

    if (!replayed) {
      GREATER_FAULT_POINT("stream.emit_chunk");
      rows.clear();
      engine.RunChunk(begin, end, /*conditions=*/nullptr, base,
                      &chunk_report, span.id(), &rows);
      builder.Reserve(end - begin);
      for (size_t i = 0; i < rows.size(); ++i) {
        Result<Row>& row = rows[i];
        if (row.ok()) {
          GREATER_RETURN_NOT_OK(builder.AppendRow(std::move(*row)));
          continue;
        }
        if (policy == SamplePolicy::kLenient &&
            row.status().code() == StatusCode::kResourceExhausted) {
          continue;  // dropped row, accounted as rows_exhausted
        }
        return row.status().WithContext(
            "sampling row " + std::to_string(begin + i + 1) + " of " +
            std::to_string(n));
      }
      GREATER_ASSIGN_OR_RETURN(Table chunk_table, builder.Build());
      AppendCsvRows(chunk_table, options.delimiter, &text);
      if (ckpt.enabled()) {
        ArtifactWriter doc = ckpt.Document();
        doc.AddChunk("csv", text);
        ByteWriter w;
        AppendSampleReport(chunk_report, &w);
        doc.AddChunk("report", std::move(w).Take());
        ckpt.Store(name, key, doc.Finish());
      }
    }

    GREATER_RETURN_NOT_OK(WriteBlock(&out, text, output_path));
    rows_counter.Increment(chunk_report.rows_emitted);
    total.Merge(chunk_report);
  }

  out.close();
  if (!out.good()) {
    return Status::Internal("I/O error writing CSV '" + output_path + "'");
  }
  return total;
}

}  // namespace greater
