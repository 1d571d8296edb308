#include "tabular/table_builder.h"

#include <string>
#include <utility>

namespace greater {

TableBuilder::TableBuilder(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_fields());
}

void TableBuilder::Reserve(size_t rows) {
  for (auto& column : columns_) column.reserve(rows);
}

Status TableBuilder::AppendCell(size_t col, Value value) {
  if (col != cursor_ || col >= columns_.size()) {
    size_t got = col;
    RollbackRow();
    return Status::Invalid("AppendCell: expected column " +
                           std::to_string(cursor_) + ", got " +
                           std::to_string(got));
  }
  bool widen = false;
  if (!value.is_null()) {
    const Field& f = schema_.field(col);
    if (value.type() != f.type) {
      // Int widens into double columns, as in Table::AppendRow.
      widen = f.type == ValueType::kDouble && value.is_int();
      if (!widen) {
        Status status = Status::Invalid(
            "column '" + f.name + "' expects " + ValueTypeToString(f.type) +
            ", got " + ValueTypeToString(value.type()));
        RollbackRow();
        return status;
      }
    }
  }
  if (widen) {
    columns_[col].emplace_back(static_cast<double>(value.as_int()));
  } else {
    columns_[col].push_back(std::move(value));
  }
  ++cursor_;
  return Status::OK();
}

Status TableBuilder::CommitRow() {
  if (cursor_ != columns_.size()) {
    Status status = Status::Invalid(
        "CommitRow: row has " + std::to_string(cursor_) + " cells, table has " +
        std::to_string(columns_.size()) + " columns");
    RollbackRow();
    return status;
  }
  cursor_ = 0;
  ++num_rows_;
  return Status::OK();
}

Status TableBuilder::AppendRow(Row row) {
  if (cursor_ != 0) {
    return Status::Invalid("AppendRow: a row is already in progress");
  }
  if (row.size() != columns_.size()) {
    return Status::Invalid("row has " + std::to_string(row.size()) +
                           " cells, table has " +
                           std::to_string(columns_.size()) + " columns");
  }
  for (size_t c = 0; c < row.size(); ++c) {
    GREATER_RETURN_NOT_OK(AppendCell(c, std::move(row[c])));
  }
  return CommitRow();
}

Result<Table> TableBuilder::Build() {
  if (cursor_ != 0) {
    return Status::Invalid("Build: a row is still in progress");
  }
  Table table(schema_);
  table.columns_ = std::move(columns_);
  table.num_rows_ = num_rows_;
  columns_.clear();
  columns_.resize(schema_.num_fields());
  num_rows_ = 0;
  return table;
}

void TableBuilder::RollbackRow() {
  for (size_t c = 0; c < cursor_; ++c) columns_[c].pop_back();
  cursor_ = 0;
}

}  // namespace greater
