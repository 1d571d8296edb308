#include "stream/fit_stage.h"

#include <memory>
#include <optional>
#include <utility>

namespace greater {

namespace {
constexpr const char* kCheckpointLabel = "oocore.fit";
}  // namespace

Result<FitStage> FitStage::Open(const std::string& csv_path,
                                const Options& options) {
  Schema schema;
  StreamIngestReport report;
  CheckpointStore ckpt(CheckpointScope::kChunk, options.checkpoint_dir,
                       kCheckpointLabel);
  GREATER_ASSIGN_OR_RETURN(
      schema, InferCsvSchemaStreaming(csv_path, options.csv, options.stream,
                                      options.policy, &report, &ckpt));
  FitStage stage(csv_path, options, std::move(schema));
  stage.report_ = report;
  stage.content_chain_ = ckpt.chain();
  return stage;
}

TableChunkSource FitStage::ChunkSource() {
  return [this]() -> Result<TableChunkStream> {
    // Each pass gets a fresh store (the chain restarts per pass) over the
    // shared directory, and a fresh reader. Both live in shared state
    // owned by the stream closure; the store must outlive the reader,
    // whose workers store into it.
    struct PassState {
      explicit PassState(const std::string& dir)
          : ckpt(CheckpointScope::kChunk, dir, kCheckpointLabel) {}
      CheckpointStore ckpt;
      std::unique_ptr<CsvChunkReader> reader;
    };
    auto state = std::make_shared<PassState>(options_.checkpoint_dir);
    GREATER_ASSIGN_OR_RETURN(
        state->reader,
        CsvChunkReader::OpenFile(csv_path_, options_.csv, options_.stream,
                                 options_.policy, &report_, &state->ckpt));
    return TableChunkStream(
        [this, state]() -> Result<std::optional<Table>> {
          GREATER_ASSIGN_OR_RETURN(std::optional<CsvChunk> chunk,
                                   state->reader->Next());
          if (!chunk.has_value()) {
            GREATER_RETURN_NOT_OK(state->reader->Close());
            return std::optional<Table>();
          }
          GREATER_ASSIGN_OR_RETURN(
              Table table, CsvRowsToTable(schema_, chunk->rows,
                                          options_.csv.null_token));
          return std::optional<Table>(std::move(table));
        });
  };
}

}  // namespace greater
