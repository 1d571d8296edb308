#include "tabular/table_serde.h"

#include <string>
#include <utility>
#include <vector>

namespace greater {

void AppendValue(const Value& value, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      w->PutI64(value.as_int());
      break;
    case ValueType::kDouble:
      w->PutF64(value.as_double());
      break;
    case ValueType::kString:
      w->PutString(value.as_string());
      break;
  }
}

Status ReadValue(ByteReader* r, Value* out) {
  uint8_t tag = 0;
  GREATER_RETURN_NOT_OK(r->GetU8(&tag));
  switch (tag) {
    case static_cast<uint8_t>(ValueType::kNull):
      *out = Value::Null();
      return Status::OK();
    case static_cast<uint8_t>(ValueType::kInt): {
      int64_t v = 0;
      GREATER_RETURN_NOT_OK(r->GetI64(&v));
      *out = Value(v);
      return Status::OK();
    }
    case static_cast<uint8_t>(ValueType::kDouble): {
      double v = 0.0;
      GREATER_RETURN_NOT_OK(r->GetF64(&v));
      *out = Value(v);
      return Status::OK();
    }
    case static_cast<uint8_t>(ValueType::kString): {
      std::string v;
      GREATER_RETURN_NOT_OK(r->GetString(&v));
      *out = Value(std::move(v));
      return Status::OK();
    }
    default:
      return Status::DataLoss("corrupt value: unknown type tag " +
                              std::to_string(tag));
  }
}

void AppendSchema(const Schema& schema, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(schema.num_fields()));
  for (const Field& field : schema.fields()) {
    w->PutString(field.name);
    w->PutU8(static_cast<uint8_t>(field.type));
    w->PutU8(static_cast<uint8_t>(field.semantic));
  }
}

Status ReadSchema(ByteReader* r, Schema* out) {
  uint32_t num_fields = 0;
  GREATER_RETURN_NOT_OK(r->GetU32(&num_fields));
  GREATER_RETURN_NOT_OK(r->CheckCount(num_fields, 4 + 1 + 1));
  std::vector<Field> fields;
  fields.reserve(num_fields);
  for (uint32_t i = 0; i < num_fields; ++i) {
    Field field;
    GREATER_RETURN_NOT_OK(r->GetString(&field.name));
    uint8_t type = 0;
    GREATER_RETURN_NOT_OK(r->GetU8(&type));
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::DataLoss("corrupt schema: unknown value type " +
                              std::to_string(type));
    }
    field.type = static_cast<ValueType>(type);
    uint8_t semantic = 0;
    GREATER_RETURN_NOT_OK(r->GetU8(&semantic));
    if (semantic > static_cast<uint8_t>(SemanticType::kIdentifier)) {
      return Status::DataLoss("corrupt schema: unknown semantic type " +
                              std::to_string(semantic));
    }
    field.semantic = static_cast<SemanticType>(semantic);
    fields.push_back(std::move(field));
  }
  GREATER_ASSIGN_OR_RETURN(*out, Schema::Make(std::move(fields)));
  return Status::OK();
}

void AppendTable(const Table& table, ByteWriter* w) {
  AppendSchema(table.schema(), w);
  w->PutU64(table.num_rows());
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t col = 0; col < table.num_columns(); ++col) {
      AppendValue(table.at(row, col), w);
    }
  }
}

Status ReadTable(ByteReader* r, Table* out) {
  Schema schema;
  GREATER_RETURN_NOT_OK_CTX(ReadSchema(r, &schema), "table schema");
  uint64_t num_rows = 0;
  GREATER_RETURN_NOT_OK(r->GetU64(&num_rows));
  const size_t num_columns = schema.num_fields();
  // Every cell takes at least its one-byte type tag.
  GREATER_RETURN_NOT_OK(r->CheckCount(num_rows, num_columns));
  Table table(schema);
  for (uint64_t row = 0; row < num_rows; ++row) {
    Row cells(num_columns);
    for (size_t col = 0; col < num_columns; ++col) {
      GREATER_RETURN_NOT_OK_CTX(
          ReadValue(r, &cells[col]),
          "table cell (" + std::to_string(row) + ", " + std::to_string(col) +
              ")");
    }
    GREATER_RETURN_NOT_OK_CTX(table.AppendRow(std::move(cells)),
                              "table row " + std::to_string(row));
  }
  *out = std::move(table);
  return Status::OK();
}

}  // namespace greater
