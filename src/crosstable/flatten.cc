#include "crosstable/flatten.h"

#include <utility>
#include <vector>

#include "common/fault.h"

namespace greater {

Result<Table> DirectFlatten(const Table& left, const Table& right,
                            const std::string& key_column) {
  GREATER_FAULT_POINT("pipeline.flatten");
  GREATER_ASSIGN_OR_RETURN(size_t left_key,
                           left.schema().FieldIndex(key_column));
  GREATER_ASSIGN_OR_RETURN(size_t right_key,
                           right.schema().FieldIndex(key_column));

  // Output columns: key, then left features, then right features.
  std::vector<Field> fields;
  std::vector<size_t> left_features, right_features;
  fields.push_back(left.schema().field(left_key));
  for (size_t c = 0; c < left.num_columns(); ++c) {
    if (c == left_key) continue;
    fields.push_back(left.schema().field(c));
    left_features.push_back(c);
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    if (c == right_key) continue;
    fields.push_back(right.schema().field(c));
    right_features.push_back(c);
  }
  GREATER_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(std::move(schema));

  GREATER_ASSIGN_OR_RETURN(auto left_groups, left.GroupByColumn(key_column));
  GREATER_ASSIGN_OR_RETURN(auto right_groups,
                           right.GroupByColumn(key_column));
  for (const auto& [key, left_rows] : left_groups) {
    auto it = right_groups.find(key);
    if (it == right_groups.end()) continue;
    for (size_t lr : left_rows) {
      for (size_t rr : it->second) {
        Row row;
        row.reserve(out.num_columns());
        row.push_back(key);
        for (size_t c : left_features) row.push_back(left.at(lr, c));
        for (size_t c : right_features) row.push_back(right.at(rr, c));
        GREATER_RETURN_NOT_OK(out.AppendRow(std::move(row)));
      }
    }
  }
  return out;
}

Result<size_t> DirectFlattenRowCount(const Table& left, const Table& right,
                                     const std::string& key_column) {
  GREATER_ASSIGN_OR_RETURN(auto left_groups, left.GroupByColumn(key_column));
  GREATER_ASSIGN_OR_RETURN(auto right_groups,
                           right.GroupByColumn(key_column));
  size_t total = 0;
  for (const auto& [key, left_rows] : left_groups) {
    auto it = right_groups.find(key);
    if (it == right_groups.end()) continue;
    total += left_rows.size() * it->second.size();
  }
  return total;
}

}  // namespace greater
