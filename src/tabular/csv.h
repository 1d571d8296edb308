#ifndef GREATER_TABULAR_CSV_H_
#define GREATER_TABULAR_CSV_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "tabular/table.h"

namespace greater {

/// Options for CSV parsing.
struct CsvReadOptions {
  char delimiter = ',';
  /// When true, column types are inferred (int -> double -> string). When
  /// false, every column is read as string.
  bool infer_types = true;
  /// Cells equal to this string (after trimming) parse as null.
  std::string null_token = "";
};

/// Incremental RFC-4180 record splitter: the chunked-ingest primitive
/// behind both ReadCsvString and the streaming reader in src/stream. Bytes
/// arrive in arbitrary blocks via Feed — a quoted field containing a
/// newline may span any number of blocks — and complete records are pulled
/// out as they materialize. State (quote nesting, partial field, partial
/// CR/LF pair) persists across Feed calls, so splitting is independent of
/// how the input was blocked: splitting a file fed in 1-byte pieces yields
/// byte-identical records to splitting it fed whole.
///
/// Quirks preserved from the historical whole-string parser: a UTF-8 BOM
/// at stream start is stripped (csv.bom_stripped counter), blank lines are
/// skipped (csv.blank_lines_skipped counter) and do not consume a record
/// number, a trailing '\r' before '\n' is dropped (CRLF and LF mix
/// freely), and a final record without a trailing newline is emitted at
/// FinishInput. Input ending inside a quoted field is kDataLoss. A record
/// whose raw text exceeds max_record_bytes (when set) is
/// kResourceExhausted — a typed error, never unbounded buffering.
class CsvRecordSplitter {
 public:
  struct Record {
    /// 1-based ordinal among emitted records (the header is record 1);
    /// skipped blank lines do not advance it — matching the record
    /// numbers ReadCsvString reports in ragged-record errors.
    uint64_t number = 0;
    std::vector<std::string> fields;
    /// Raw text of the record as read, without the record separator —
    /// what a quarantine file preserves for post-mortems.
    std::string raw;
  };

  enum class Next {
    kRecord,         ///< *out holds the next record
    kNeedMoreInput,  ///< buffered bytes hold no complete record yet
    kEndOfInput,     ///< FinishInput seen and every record extracted
  };

  explicit CsvRecordSplitter(char delimiter = ',');

  /// Appends a block of input bytes.
  void Feed(std::string_view bytes);
  /// Marks end of input: a buffered final record (no trailing newline)
  /// becomes extractable, and NextRecord reports kEndOfInput after it.
  void FinishInput();

  /// Extracts the next complete record into *out (valid on kRecord only).
  Result<Next> NextRecord(Record* out);

  /// 0 disables the bound (default 4 MiB).
  void set_max_record_bytes(size_t n) { max_record_bytes_ = n; }

  uint64_t records_emitted() const { return records_emitted_; }

 private:
  Status Oversized() const;

  char delim_;
  size_t max_record_bytes_ = size_t{4} << 20;
  std::string buffer_;       // unconsumed input bytes
  size_t pos_ = 0;           // consume cursor into buffer_
  bool finished_ = false;    // FinishInput seen
  bool bom_checked_ = false;
  bool in_quotes_ = false;
  bool field_started_ = false;
  std::string field_;
  std::vector<std::string> fields_;
  std::string raw_;
  uint64_t records_emitted_ = 0;
};

/// Per-column type-inference accumulator. ReadCsvString folds every
/// non-null cell of a column into one; the chunked reader keeps one per
/// chunk and merges them with OR/AND/AND, which reproduces the
/// whole-column scan exactly.
struct CsvColumnFlags {
  bool any_value = false;
  bool all_int = true;
  bool all_double = true;

  /// Folds one non-null cell into the flags.
  void Observe(const std::string& cell);
};

/// Builds the inferred schema from the header and each column's flags —
/// the one type-inference rule of every CSV reader: int -> double ->
/// string, value-less columns are string, and every column is string when
/// `infer_types` is false. Doubles are continuous, everything else
/// categorical.
Result<Schema> SchemaFromCsvFlags(const std::vector<std::string>& header,
                                  const std::vector<CsvColumnFlags>& merged,
                                  bool infer_types);

/// Converts raw string rows into a typed Table under a fixed schema
/// (null_token cells become nulls). kDataLoss when a cell fails to parse
/// as its column's declared type — impossible when the schema was
/// inferred from the same input.
Result<Table> CsvRowsToTable(const Schema& schema,
                             const std::vector<std::vector<std::string>>& rows,
                             const std::string& null_token);

/// Parses RFC-4180-style CSV text (double-quote quoting, embedded
/// delimiters/newlines/escaped quotes) into a Table. The first record is
/// the header. Inferred types: a column is kInt if every non-null cell
/// parses as an integer, else kDouble if every cell parses as a real,
/// else kString. Semantic types default to kCategorical (int/string) and
/// kContinuous (double); callers adjust via the schema afterwards.
Result<Table> ReadCsvString(const std::string& text,
                            const CsvReadOptions& options = {});

/// Reads a CSV file from disk. See ReadCsvString.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvReadOptions& options = {});

/// Appends the escaped header line for `schema` to *out — the exact bytes
/// WriteCsvString starts with. Factored out so chunked emitters (streaming
/// sample emission) can render incrementally yet byte-identically to a
/// whole-table write.
void AppendCsvHeader(const Schema& schema, char delimiter, std::string* out);

/// Appends `table`'s rows (no header) as escaped CSV lines to *out.
/// WriteCsvString(t) == header + rows, so emitting a table chunk-by-chunk
/// through this produces the same bytes as one whole-table write.
void AppendCsvRows(const Table& table, char delimiter, std::string* out);

/// Serializes a table to CSV text (header + rows, quoting fields that
/// contain the delimiter, quotes, or newlines). Nulls serialize as the
/// empty field.
std::string WriteCsvString(const Table& table, char delimiter = ',');

/// Writes a table to a CSV file on disk.
Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter = ',');

}  // namespace greater

#endif  // GREATER_TABULAR_CSV_H_
