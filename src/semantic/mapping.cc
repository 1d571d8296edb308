#include "semantic/mapping.h"

#include <set>
#include <sstream>
#include <string_view>

#include "common/artifact_io.h"
#include "common/strings.h"
#include "tabular/csv.h"
#include "tabular/table_serde.h"

namespace greater {

Result<MappingSystem> MappingSystem::Make(
    std::vector<ColumnMapping> mappings) {
  std::set<std::string> columns;
  std::set<Value> all_replacements;
  for (const auto& mapping : mappings) {
    if (!columns.insert(mapping.column).second) {
      return Status::AlreadyExists("duplicate mapping for column '" +
                                   mapping.column + "'");
    }
    if (mapping.forward.empty()) {
      return Status::Invalid("empty mapping for column '" + mapping.column +
                             "'");
    }
    for (const auto& [original, replacement] : mapping.forward) {
      if (replacement.is_null()) {
        return Status::Invalid("null replacement in column '" +
                               mapping.column + "'");
      }
      if (!all_replacements.insert(replacement).second) {
        return Status::Invalid(
            "replacement '" + replacement.ToDisplayString() +
            "' used twice; replacements must be globally distinct for the "
            "differentiability guarantee");
      }
    }
  }
  MappingSystem system;
  system.mappings_ = std::move(mappings);
  return system;
}

Result<Table> MappingSystem::Apply(const Table& table) const {
  if (erased_) {
    return Status::FailedPrecondition("mapping system has been erased");
  }
  // New schema: mapped columns become categorical strings.
  std::vector<Field> fields = table.schema().fields();
  for (const auto& mapping : mappings_) {
    GREATER_ASSIGN_OR_RETURN(size_t idx,
                             table.schema().FieldIndex(mapping.column));
    fields[idx].type = ValueType::kString;
    fields[idx].semantic = SemanticType::kCategorical;
  }
  GREATER_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(std::move(schema));
  // Column-wise copy with substitution.
  std::vector<std::vector<Value>> columns(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns[c].reserve(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      columns[c].push_back(table.at(r, c));
    }
  }
  for (const auto& mapping : mappings_) {
    size_t idx = table.schema().FieldIndex(mapping.column).ValueOrDie();
    for (Value& v : columns[idx]) {
      if (v.is_null()) continue;
      auto it = mapping.forward.find(v);
      if (it == mapping.forward.end()) {
        return Status::NotFound("no mapping for value '" +
                                v.ToDisplayString() + "' in column '" +
                                mapping.column + "'");
      }
      v = it->second;
    }
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    Row row;
    row.reserve(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row.push_back(columns[c][r]);
    }
    GREATER_RETURN_NOT_OK(out.AppendRow(std::move(row)));
  }
  return out;
}

Result<Table> MappingSystem::Invert(const Table& table) const {
  if (erased_) {
    return Status::FailedPrecondition("mapping system has been erased");
  }
  std::vector<Field> fields = table.schema().fields();
  for (const auto& mapping : mappings_) {
    GREATER_ASSIGN_OR_RETURN(size_t idx,
                             table.schema().FieldIndex(mapping.column));
    fields[idx].type = mapping.original_type;
    fields[idx].semantic = SemanticType::kCategorical;
  }
  GREATER_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(std::move(schema));

  // Build reverse maps once.
  std::vector<std::map<Value, Value>> reverse(mappings_.size());
  std::vector<size_t> column_index(mappings_.size());
  for (size_t m = 0; m < mappings_.size(); ++m) {
    for (const auto& [original, replacement] : mappings_[m].forward) {
      reverse[m][replacement] = original;
    }
    column_index[m] =
        table.schema().FieldIndex(mappings_[m].column).ValueOrDie();
  }

  for (size_t r = 0; r < table.num_rows(); ++r) {
    Row row = table.GetRow(r);
    for (size_t m = 0; m < mappings_.size(); ++m) {
      Value& v = row[column_index[m]];
      if (v.is_null()) continue;
      auto it = reverse[m].find(v);
      if (it == reverse[m].end()) {
        return Status::DataLoss("synthetic value '" + v.ToDisplayString() +
                                "' has no inverse mapping in column '" +
                                mappings_[m].column + "'");
      }
      v = it->second;
    }
    GREATER_RETURN_NOT_OK(out.AppendRow(std::move(row)));
  }
  return out;
}

namespace {

std::vector<ColumnMapping> FilterToPresent(
    const std::vector<ColumnMapping>& mappings, const Table& table) {
  std::vector<ColumnMapping> present;
  for (const auto& mapping : mappings) {
    if (table.schema().HasField(mapping.column)) present.push_back(mapping);
  }
  return present;
}

}  // namespace

Result<Table> MappingSystem::ApplyPartial(const Table& table) const {
  if (erased_) {
    return Status::FailedPrecondition("mapping system has been erased");
  }
  std::vector<ColumnMapping> present = FilterToPresent(mappings_, table);
  if (present.empty()) return table;
  GREATER_ASSIGN_OR_RETURN(MappingSystem sub,
                           MappingSystem::Make(std::move(present)));
  return sub.Apply(table);
}

Result<Table> MappingSystem::InvertPartial(const Table& table) const {
  if (erased_) {
    return Status::FailedPrecondition("mapping system has been erased");
  }
  std::vector<ColumnMapping> present = FilterToPresent(mappings_, table);
  if (present.empty()) return table;
  GREATER_ASSIGN_OR_RETURN(MappingSystem sub,
                           MappingSystem::Make(std::move(present)));
  return sub.Invert(table);
}

namespace {

constexpr char kMappingKind[] = "greater.mapping_system";
constexpr uint32_t kMappingVersion = 1;

/// Legacy CSV text parser (column, original_type, original, replacement)
/// kept for mappings written by earlier releases. Known hazards of the
/// format — commas/newlines in values depend on CSV quoting, empty
/// strings read back as nulls, doubles go through display strings — are
/// why Serialize now emits the binary artifact instead.
Result<MappingSystem> DeserializeLegacyCsv(const std::string& text);

Result<MappingSystem> DeserializeBinary(const std::string& bytes) {
  GREATER_ASSIGN_OR_RETURN(
      ArtifactReader doc,
      ArtifactReader::Parse(bytes, kMappingKind, kMappingVersion));
  GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("mappings"));
  ByteReader r(payload);
  uint32_t num_mappings = 0;
  GREATER_RETURN_NOT_OK(r.GetU32(&num_mappings));
  GREATER_RETURN_NOT_OK(r.CheckCount(num_mappings, 4 + 1 + 4));
  std::vector<ColumnMapping> mappings;
  mappings.reserve(num_mappings);
  for (uint32_t m = 0; m < num_mappings; ++m) {
    ColumnMapping mapping;
    GREATER_RETURN_NOT_OK(r.GetString(&mapping.column));
    uint8_t type = 0;
    GREATER_RETURN_NOT_OK(r.GetU8(&type));
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::DataLoss("corrupt mapping: unknown original type " +
                              std::to_string(type));
    }
    mapping.original_type = static_cast<ValueType>(type);
    uint32_t num_entries = 0;
    GREATER_RETURN_NOT_OK(r.GetU32(&num_entries));
    for (uint32_t e = 0; e < num_entries; ++e) {
      Value original, replacement;
      GREATER_RETURN_NOT_OK(ReadValue(&r, &original));
      GREATER_RETURN_NOT_OK(ReadValue(&r, &replacement));
      mapping.forward[std::move(original)] = std::move(replacement);
    }
    mappings.push_back(std::move(mapping));
  }
  GREATER_RETURN_NOT_OK(r.ExpectEnd());
  return MappingSystem::Make(std::move(mappings));
}

}  // namespace

std::string MappingSystem::Serialize() const {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(mappings_.size()));
  for (const auto& mapping : mappings_) {
    w.PutString(mapping.column);
    w.PutU8(static_cast<uint8_t>(mapping.original_type));
    w.PutU32(static_cast<uint32_t>(mapping.forward.size()));
    for (const auto& [original, replacement] : mapping.forward) {
      AppendValue(original, &w);
      AppendValue(replacement, &w);
    }
  }
  ArtifactWriter doc(kMappingKind, kMappingVersion);
  doc.AddChunk("mappings", std::move(w).Take());
  return doc.Finish();
}

Result<MappingSystem> MappingSystem::Deserialize(const std::string& text) {
  if (text.size() >= 8 && text.compare(0, 8, "GRTRART1") == 0) {
    return DeserializeBinary(text);
  }
  return DeserializeLegacyCsv(text);
}

Status MappingSystem::Save(const std::string& path) const {
  return AtomicWriteFile(path, Serialize())
      .WithContext("saving mapping system to '" + path + "'");
}

Status MappingSystem::Load(const std::string& path) {
  GREATER_ASSIGN_OR_RETURN_CTX(std::string bytes, ReadFileBytes(path),
                               "loading mapping system from '" + path + "'");
  GREATER_ASSIGN_OR_RETURN_CTX(*this, Deserialize(bytes),
                               "loading mapping system from '" + path + "'");
  return Status::OK();
}

namespace {

Result<MappingSystem> DeserializeLegacyCsv(const std::string& text) {
  CsvReadOptions options;
  options.infer_types = false;
  GREATER_ASSIGN_OR_RETURN(Table table, ReadCsvString(text, options));
  for (const char* required :
       {"column", "original_type", "original", "replacement"}) {
    if (!table.schema().HasField(required)) {
      return Status::DataLoss("serialized mapping missing field '" +
                              std::string(required) + "'");
    }
  }
  std::map<std::string, ColumnMapping> by_column;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    auto cell = [&](const char* name) {
      size_t idx = table.schema().FieldIndex(name).ValueOrDie();
      return table.at(r, idx).as_string();
    };
    std::string column = cell("column");
    std::string type_name = cell("original_type");
    ColumnMapping& mapping = by_column[column];
    mapping.column = column;
    if (type_name == "int") {
      mapping.original_type = ValueType::kInt;
    } else if (type_name == "double") {
      mapping.original_type = ValueType::kDouble;
    } else {
      mapping.original_type = ValueType::kString;
    }
    Value original;
    switch (mapping.original_type) {
      case ValueType::kInt: {
        auto parsed = ParseInt(cell("original"));
        if (!parsed) {
          return Status::DataLoss("bad int original '" + cell("original") +
                                  "'");
        }
        original = Value(*parsed);
        break;
      }
      case ValueType::kDouble: {
        auto parsed = ParseDouble(cell("original"));
        if (!parsed) {
          return Status::DataLoss("bad double original '" + cell("original") +
                                  "'");
        }
        original = Value(*parsed);
        break;
      }
      default:
        original = Value(cell("original"));
    }
    mapping.forward[original] = Value(cell("replacement"));
  }
  std::vector<ColumnMapping> mappings;
  mappings.reserve(by_column.size());
  for (auto& [name, mapping] : by_column) {
    mappings.push_back(std::move(mapping));
  }
  return MappingSystem::Make(std::move(mappings));
}

}  // namespace

void MappingSystem::Erase() {
  mappings_.clear();
  erased_ = true;
}

}  // namespace greater
