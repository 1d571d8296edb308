#include "tabular/csv.h"

#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "common/artifact_io.h"
#include "common/fault.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace greater {
namespace {

// Recovery events: inputs that parsed only because the reader repaired or
// skipped something. Surfaced so silent data quirks show up in snapshots.
Counter& BomStrippedCounter() {
  static Counter* counter =
      &MetricsRegistry::Global().GetCounter("csv.bom_stripped");
  return *counter;
}

Counter& BlankLinesSkippedCounter() {
  static Counter* counter =
      &MetricsRegistry::Global().GetCounter("csv.blank_lines_skipped");
  return *counter;
}

}  // namespace

CsvRecordSplitter::CsvRecordSplitter(char delimiter) : delim_(delimiter) {}

void CsvRecordSplitter::Feed(std::string_view bytes) {
  buffer_.append(bytes.data(), bytes.size());
}

void CsvRecordSplitter::FinishInput() { finished_ = true; }

Status CsvRecordSplitter::Oversized() const {
  return Status::ResourceExhausted(
      "CSV record " + std::to_string(records_emitted_ + 1) + " exceeds the " +
      std::to_string(max_record_bytes_) +
      "-byte record budget (unterminated quote or pathological row?)");
}

Result<CsvRecordSplitter::Next> CsvRecordSplitter::NextRecord(Record* out) {
  // Tolerate a UTF-8 byte-order mark at stream start: some exporters
  // (notably spreadsheet tools on Windows) prepend one, and without
  // stripping it the BOM bytes would silently become part of the first
  // header name. With fewer than 3 bytes buffered the prefix may still
  // turn into a BOM, so hold off until it is decidable.
  if (!bom_checked_) {
    static constexpr std::string_view kBom = "\xEF\xBB\xBF";
    std::string_view head =
        std::string_view(buffer_).substr(pos_, std::min<size_t>(
                                                   buffer_.size() - pos_, 3));
    if (head == kBom) {
      pos_ += 3;
      bom_checked_ = true;
      BomStrippedCounter().Increment();
    } else if (head.size() < 3 && kBom.substr(0, head.size()) == head &&
               !finished_) {
      return Next::kNeedMoreInput;
    } else {
      bom_checked_ = true;
    }
  }

  // Completes the buffered record. Returns false for a skipped blank line
  // (a record that is a single empty field), true when *out was filled.
  auto emit = [&]() {
    if (!field_.empty() && field_.back() == '\r') field_.pop_back();
    if (!raw_.empty() && raw_.back() == '\r') raw_.pop_back();
    fields_.push_back(std::move(field_));
    field_.clear();
    field_started_ = false;
    if (fields_.size() == 1 && fields_[0].empty()) {
      BlankLinesSkippedCounter().Increment();
      fields_.clear();
      raw_.clear();
      return false;
    }
    out->number = ++records_emitted_;
    out->fields = std::move(fields_);
    fields_.clear();
    out->raw = std::move(raw_);
    raw_.clear();
    return true;
  };
  // Reclaims consumed buffer prefix; called only at points where pos_ is
  // the sole cursor into buffer_.
  auto compact = [&]() {
    if (pos_ >= (size_t{1} << 16)) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
  };

  while (pos_ < buffer_.size()) {
    char c = buffer_[pos_];
    if (in_quotes_) {
      if (c == '"') {
        if (pos_ + 1 < buffer_.size()) {
          if (buffer_[pos_ + 1] == '"') {  // escaped quote
            field_ += '"';
            raw_ += "\"\"";
            pos_ += 2;
          } else {
            in_quotes_ = false;
            raw_ += '"';
            pos_ += 1;
          }
        } else if (finished_) {
          in_quotes_ = false;
          raw_ += '"';
          pos_ += 1;
        } else {
          // A closing quote at the buffer edge is ambiguous (the next byte
          // may double it into an escape); wait for more input.
          compact();
          return Next::kNeedMoreInput;
        }
      } else {
        field_ += c;
        raw_ += c;
        pos_ += 1;
      }
    } else if (c == '"' && !field_started_) {
      in_quotes_ = true;
      field_started_ = true;
      raw_ += c;
      pos_ += 1;
    } else if (c == delim_) {
      raw_ += c;
      fields_.push_back(std::move(field_));
      field_.clear();
      field_started_ = false;
      pos_ += 1;
    } else if (c == '\n') {
      pos_ += 1;
      compact();
      if (emit()) return Next::kRecord;
    } else {
      field_ += c;
      field_started_ = true;
      raw_ += c;
      pos_ += 1;
    }
    if (max_record_bytes_ != 0 && raw_.size() > max_record_bytes_) {
      return Oversized();
    }
  }
  compact();
  if (!finished_) return Next::kNeedMoreInput;
  if (in_quotes_) {
    return Status::DataLoss("CSV ends inside a quoted field");
  }
  // Ragged final record without a trailing newline.
  if (!field_.empty() || !fields_.empty()) {
    if (emit()) return Next::kRecord;
  }
  return Next::kEndOfInput;
}

void CsvColumnFlags::Observe(const std::string& cell) {
  any_value = true;
  if (all_int && !ParseInt(cell).has_value()) all_int = false;
  if (all_double && !ParseDouble(cell).has_value()) all_double = false;
}

Result<Schema> SchemaFromCsvFlags(const std::vector<std::string>& header,
                                  const std::vector<CsvColumnFlags>& merged,
                                  bool infer_types) {
  const size_t num_cols = header.size();
  std::vector<Field> fields;
  fields.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    ValueType type = ValueType::kString;
    if (infer_types && merged[c].any_value) {
      if (merged[c].all_int) {
        type = ValueType::kInt;
      } else if (merged[c].all_double) {
        type = ValueType::kDouble;
      }
    }
    SemanticType semantic = type == ValueType::kDouble
                                ? SemanticType::kContinuous
                                : SemanticType::kCategorical;
    fields.emplace_back(header[c], type, semantic);
  }
  return Schema::Make(std::move(fields));
}

Result<Table> CsvRowsToTable(
    const Schema& schema, const std::vector<std::vector<std::string>>& rows,
    const std::string& null_token) {
  const size_t num_cols = schema.num_fields();
  Table table(schema);
  for (const auto& row_cells : rows) {
    Row row;
    row.reserve(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      const std::string& cell = row_cells[c];
      if (cell == null_token) {
        row.push_back(Value::Null());
        continue;
      }
      switch (schema.field(c).type) {
        case ValueType::kInt: {
          std::optional<int64_t> parsed = ParseInt(cell);
          if (!parsed.has_value()) {
            return Status::DataLoss("cell '" + cell +
                                    "' does not parse as int in column '" +
                                    schema.field(c).name + "'");
          }
          row.push_back(Value(*parsed));
          break;
        }
        case ValueType::kDouble: {
          std::optional<double> parsed = ParseDouble(cell);
          if (!parsed.has_value()) {
            return Status::DataLoss("cell '" + cell +
                                    "' does not parse as double in column '" +
                                    schema.field(c).name + "'");
          }
          row.push_back(Value(*parsed));
          break;
        }
        default:
          row.push_back(Value(cell));
      }
    }
    GREATER_RETURN_NOT_OK(table.AppendRow(std::move(row)));
  }
  return table;
}

Result<Table> ReadCsvString(const std::string& text,
                            const CsvReadOptions& options) {
  GREATER_FAULT_POINT("csv.read");
  // The splitter strips a leading UTF-8 BOM and skips blank lines; the
  // whole-string path has no chunk budget, so records are unbounded.
  CsvRecordSplitter splitter(options.delimiter);
  splitter.set_max_record_bytes(0);
  splitter.Feed(text);
  splitter.FinishInput();
  std::optional<std::vector<std::string>> header;
  std::vector<CsvColumnFlags> flags;
  std::vector<std::vector<std::string>> rows;
  CsvRecordSplitter::Record record;
  for (;;) {
    GREATER_ASSIGN_OR_RETURN(CsvRecordSplitter::Next next,
                             splitter.NextRecord(&record));
    if (next != CsvRecordSplitter::Next::kRecord) break;
    if (!header.has_value()) {
      header = std::move(record.fields);
      flags.resize(header->size());
      continue;
    }
    if (record.fields.size() != header->size()) {
      // 1-based record number counting the header as record 1, so the
      // number matches the line users see in an editor (blank lines aside).
      return Status::DataLoss("CSV record " + std::to_string(record.number) +
                              " has " + std::to_string(record.fields.size()) +
                              " fields, header has " +
                              std::to_string(header->size()));
    }
    for (size_t c = 0; c < flags.size(); ++c) {
      if (record.fields[c] != options.null_token) {
        flags[c].Observe(record.fields[c]);
      }
    }
    rows.push_back(std::move(record.fields));
  }
  if (!header.has_value()) {
    return Status::DataLoss("CSV has no header record");
  }
  GREATER_ASSIGN_OR_RETURN(
      Schema schema, SchemaFromCsvFlags(*header, flags, options.infer_types));
  return CsvRowsToTable(schema, rows, options.null_token);
}

Result<Table> ReadCsvFile(const std::string& path,
                          const CsvReadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open CSV file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadCsvString(buffer.str(), options);
}

namespace {

std::string EscapeField(const std::string& field, char delim) {
  bool needs_quotes = field.find(delim) != std::string::npos ||
                      field.find('"') != std::string::npos ||
                      field.find('\n') != std::string::npos ||
                      field.find('\r') != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void AppendCsvHeader(const Schema& schema, char delimiter,
                     std::string* out) {
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (c > 0) out->push_back(delimiter);
    *out += EscapeField(schema.field(c).name, delimiter);
  }
  out->push_back('\n');
}

void AppendCsvRows(const Table& table, char delimiter, std::string* out) {
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out->push_back(delimiter);
      *out += EscapeField(table.at(r, c).ToDisplayString(), delimiter);
    }
    out->push_back('\n');
  }
}

std::string WriteCsvString(const Table& table, char delimiter) {
  std::string out;
  AppendCsvHeader(table.schema(), delimiter, &out);
  AppendCsvRows(table, delimiter, &out);
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter) {
  // Atomic tmp-write + rename: a crash (or an injected "ckpt.write" fault)
  // can never leave a truncated CSV — readers see the previous file or the
  // complete new one.
  return AtomicWriteFile(path, WriteCsvString(table, delimiter))
      .WithContext("writing CSV '" + path + "'");
}

}  // namespace greater
