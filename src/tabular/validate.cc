#include "tabular/validate.h"

#include <set>

namespace greater {

namespace {

bool CellMatchesType(const Value& cell, ValueType type) {
  if (cell.is_null()) return true;
  switch (type) {
    case ValueType::kInt:
      return cell.is_int();
    case ValueType::kDouble:
      // AppendRow widens ints into double columns, so only doubles are
      // ever stored there.
      return cell.is_double();
    case ValueType::kString:
      return cell.is_string();
    case ValueType::kNull:
      return false;  // a null-typed column holds only nulls
  }
  return false;
}

}  // namespace

Status ValidateRectangular(const Table& table, const std::string& label) {
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& field = table.schema().field(c);
    if (table.column(c).size() != table.num_rows()) {
      return Status::Internal(
          "table '" + label + "': column '" + field.name + "' holds " +
          std::to_string(table.column(c).size()) + " cells but the table has " +
          std::to_string(table.num_rows()) + " rows (ragged)");
    }
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (!CellMatchesType(table.at(r, c), field.type)) {
        return Status::Internal(
            "table '" + label + "': column '" + field.name + "' row " +
            std::to_string(r) + " holds a value of the wrong type");
      }
    }
  }
  return Status::OK();
}

Status ValidateCategoricalDomains(const Table& table,
                                  const std::string& label) {
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& field = table.schema().field(c);
    if (field.semantic != SemanticType::kCategorical) continue;
    bool any_value = false;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (!table.at(r, c).is_null()) {
        any_value = true;
        break;
      }
    }
    if (!any_value) {
      return Status::Invalid("table '" + label + "': categorical column '" +
                             field.name +
                             "' has an empty domain (no non-null values)");
    }
  }
  return Status::OK();
}

Status ValidateKeyColumn(const Table& table, const std::string& key_column,
                         const std::string& label, bool require_unique) {
  if (!table.schema().HasField(key_column)) {
    return Status::NotFound("table '" + label + "': key column '" +
                            key_column + "' does not exist");
  }
  GREATER_ASSIGN_OR_RETURN(size_t key_idx,
                           table.schema().FieldIndex(key_column));
  std::set<Value> seen;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value& key = table.at(r, key_idx);
    if (key.is_null()) {
      return Status::Invalid("table '" + label + "': key column '" +
                             key_column + "' is null at row " +
                             std::to_string(r));
    }
    if (require_unique && !seen.insert(key).second) {
      return Status::Invalid("table '" + label + "': key column '" +
                             key_column + "' holds duplicate value '" +
                             key.ToDisplayString() + "'");
    }
  }
  return Status::OK();
}

Status ValidateStageInput(const Table& table, const std::string& key_column,
                          const std::string& label) {
  if (table.num_rows() == 0) {
    return Status::Invalid("table '" + label + "' is empty");
  }
  GREATER_RETURN_NOT_OK(ValidateRectangular(table, label));
  GREATER_RETURN_NOT_OK(ValidateCategoricalDomains(table, label));
  GREATER_RETURN_NOT_OK(ValidateKeyColumn(table, key_column, label));
  return Status::OK();
}

}  // namespace greater
