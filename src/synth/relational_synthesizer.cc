#include "synth/relational_synthesizer.h"

#include <algorithm>
#include <utility>

#include "common/artifact_io.h"
#include "tabular/table_serde.h"

namespace greater {

namespace {
constexpr char kRelationalKind[] = "greater.relational_synthesizer";
constexpr uint32_t kRelationalVersion = 1;
}  // namespace

RelationalSynthesizer::RelationalSynthesizer(const Options& options)
    : options_(options),
      parent_model_(options.parent),
      child_model_(options.child) {}

Status RelationalSynthesizer::Fit(const Table& parent, const Table& child,
                                  const std::string& key_column, Rng* rng) {
  if (fitted_) {
    return Status::FailedPrecondition("RelationalSynthesizer already fitted");
  }
  if (!parent.schema().HasField(key_column) ||
      !child.schema().HasField(key_column)) {
    return Status::Invalid("key column '" + key_column +
                           "' must exist in both tables");
  }
  key_column_ = key_column;
  parent_schema_ = parent.schema();
  child_schema_ = child.schema();

  // Parent: one row per key.
  GREATER_ASSIGN_OR_RETURN(auto parent_groups,
                           parent.GroupByColumn(key_column));
  for (const auto& [key, rows] : parent_groups) {
    if (rows.size() != 1) {
      return Status::Invalid("parent table has " + std::to_string(rows.size()) +
                             " rows for key '" + key.ToDisplayString() + "'");
    }
  }
  GREATER_ASSIGN_OR_RETURN(auto child_groups, child.GroupByColumn(key_column));
  for (const auto& [key, rows] : child_groups) {
    if (parent_groups.count(key) == 0) {
      return Status::Invalid("child key '" + key.ToDisplayString() +
                             "' missing from parent table");
    }
  }

  for (const auto& field : parent_schema_.fields()) {
    if (field.name != key_column_) {
      parent_feature_columns_.push_back(field.name);
    }
  }
  for (const auto& field : child_schema_.fields()) {
    if (field.name != key_column_) {
      if (parent_schema_.HasField(field.name)) {
        return Status::Invalid("column '" + field.name +
                               "' exists in both parent and child");
      }
      child_feature_columns_.push_back(field.name);
    }
  }
  if (parent_feature_columns_.empty() || child_feature_columns_.empty()) {
    return Status::Invalid("both tables need at least one non-key column");
  }

  // Fit the parent model on parent features only.
  GREATER_ASSIGN_OR_RETURN(Table parent_features,
                           parent.Select(parent_feature_columns_));
  GREATER_RETURN_NOT_OK_CTX(parent_model_.Fit(parent_features, rng),
                            "fitting the parent model");

  // Build the joined training table for the child model: each child row
  // extended with its parent's features.
  std::vector<std::string> joined_names = parent_feature_columns_;
  joined_names.insert(joined_names.end(), child_feature_columns_.begin(),
                      child_feature_columns_.end());
  std::vector<Field> joined_fields;
  for (const auto& name : joined_names) {
    const Schema& source =
        parent_schema_.HasField(name) ? parent_schema_ : child_schema_;
    GREATER_ASSIGN_OR_RETURN(size_t idx, source.FieldIndex(name));
    joined_fields.push_back(source.field(idx));
  }
  GREATER_ASSIGN_OR_RETURN(Schema joined_schema,
                           Schema::Make(std::move(joined_fields)));
  Table joined(joined_schema);

  GREATER_ASSIGN_OR_RETURN(size_t child_key_idx,
                           child_schema_.FieldIndex(key_column_));
  // Cache parent feature rows keyed by key value.
  std::map<Value, Row> parent_rows;
  GREATER_ASSIGN_OR_RETURN(size_t parent_key_idx,
                           parent_schema_.FieldIndex(key_column_));
  for (size_t r = 0; r < parent.num_rows(); ++r) {
    Row features;
    for (const auto& name : parent_feature_columns_) {
      size_t idx = parent_schema_.FieldIndex(name).ValueOrDie();
      features.push_back(parent.at(r, idx));
    }
    parent_rows[parent.at(r, parent_key_idx)] = std::move(features);
  }
  for (size_t r = 0; r < child.num_rows(); ++r) {
    Row row = parent_rows[child.at(r, child_key_idx)];
    for (const auto& name : child_feature_columns_) {
      size_t idx = child_schema_.FieldIndex(name).ValueOrDie();
      row.push_back(child.at(r, idx));
    }
    GREATER_RETURN_NOT_OK(joined.AppendRow(std::move(row)));
  }
  GREATER_RETURN_NOT_OK_CTX(child_model_.Fit(joined, rng),
                            "fitting the child model");

  child_counts_.clear();
  for (const auto& [key, rows] : parent_groups) {
    auto it = child_groups.find(key);
    child_counts_.push_back(it == child_groups.end() ? 0 : it->second.size());
  }
  std::sort(child_counts_.begin(), child_counts_.end());
  fitted_ = true;
  return Status::OK();
}

Result<RelationalSample> RelationalSynthesizer::Sample(
    size_t num_parents, Rng* rng, SampleReport* report) const {
  if (!fitted_) {
    return Status::FailedPrecondition("Sample before Fit");
  }
  // Synthetic parent features. Under a lenient parent-model policy this
  // may hold fewer than num_parents rows; the survivors still get
  // children below.
  GREATER_ASSIGN_OR_RETURN_CTX(
      Table parent_features, parent_model_.Sample(num_parents, rng, report),
      "sampling parent rows");

  // Assemble output parent table (key column + features, keys synthetic).
  GREATER_ASSIGN_OR_RETURN(size_t parent_key_idx,
                           parent_schema_.FieldIndex(key_column_));
  Table parent_out(parent_schema_);
  for (size_t r = 0; r < parent_features.num_rows(); ++r) {
    Value key(options_.synthetic_key_prefix + std::to_string(r));
    if (parent_schema_.field(parent_key_idx).type == ValueType::kInt) {
      key = Value(static_cast<int64_t>(r));
    }
    Row parent_row(parent_schema_.num_fields(), Value::Null());
    parent_row[parent_key_idx] = key;
    for (size_t c = 0; c < parent_feature_columns_.size(); ++c) {
      size_t idx =
          parent_schema_.FieldIndex(parent_feature_columns_[c]).ValueOrDie();
      parent_row[idx] = parent_features.at(r, c);
    }
    GREATER_RETURN_NOT_OK(parent_out.AppendRow(std::move(parent_row)));
  }
  GREATER_ASSIGN_OR_RETURN(Table child_out,
                           SampleChildren(parent_out, rng, report));
  return RelationalSample{std::move(parent_out), std::move(child_out)};
}

Result<Table> RelationalSynthesizer::SampleChildren(
    const Table& parent, Rng* rng, SampleReport* report) const {
  if (!fitted_) {
    return Status::FailedPrecondition("SampleChildren before Fit");
  }
  if (!(parent.schema() == parent_schema_)) {
    return Status::Invalid(
        "SampleChildren: parent schema differs from the schema this "
        "synthesizer was fitted on");
  }
  GREATER_ASSIGN_OR_RETURN(size_t parent_key_idx,
                           parent_schema_.FieldIndex(key_column_));
  GREATER_ASSIGN_OR_RETURN(size_t child_key_idx,
                           child_schema_.FieldIndex(key_column_));
  GREATER_ASSIGN_OR_RETURN(Table parent_features,
                           parent.Select(parent_feature_columns_));

  Table child_out(child_schema_);
  for (size_t r = 0; r < parent.num_rows(); ++r) {
    const Value& key = parent.at(r, parent_key_idx);
    size_t count = child_counts_.empty()
                       ? 0
                       : child_counts_[rng->Index(child_counts_.size())];
    if (count == 0) continue;
    Table conditions(parent_features.schema());
    for (size_t k = 0; k < count; ++k) {
      GREATER_RETURN_NOT_OK(conditions.AppendRow(parent_features.GetRow(r)));
    }
    GREATER_ASSIGN_OR_RETURN_CTX(
        Table joined_rows,
        child_model_.SampleConditional(conditions, rng, report),
        "sampling children of synthetic parent '" + key.ToDisplayString() +
            "'");
    for (size_t k = 0; k < joined_rows.num_rows(); ++k) {
      Row child_row(child_schema_.num_fields(), Value::Null());
      child_row[child_key_idx] = key;
      for (const auto& name : child_feature_columns_) {
        size_t dst = child_schema_.FieldIndex(name).ValueOrDie();
        size_t src = joined_rows.schema().FieldIndex(name).ValueOrDie();
        child_row[dst] = joined_rows.at(k, src);
      }
      GREATER_RETURN_NOT_OK(child_out.AppendRow(std::move(child_row)));
    }
  }
  return child_out;
}

Result<std::string> RelationalSynthesizer::SerializeBinary() const {
  if (!fitted_) {
    return Status::FailedPrecondition(
        "cannot serialize an unfitted relational synthesizer");
  }
  ArtifactWriter doc(kRelationalKind, kRelationalVersion);
  {
    ByteWriter w;
    w.PutString(options_.synthetic_key_prefix);
    w.PutString(key_column_);
    w.PutU32(static_cast<uint32_t>(parent_feature_columns_.size()));
    for (const std::string& name : parent_feature_columns_) w.PutString(name);
    w.PutU32(static_cast<uint32_t>(child_feature_columns_.size()));
    for (const std::string& name : child_feature_columns_) w.PutString(name);
    AppendSchema(parent_schema_, &w);
    AppendSchema(child_schema_, &w);
    w.PutU64(child_counts_.size());
    for (size_t count : child_counts_) w.PutU64(count);
    doc.AddChunk("meta", std::move(w).Take());
  }
  GREATER_ASSIGN_OR_RETURN_CTX(std::string parent_bytes,
                               parent_model_.SerializeBinary(),
                               "serializing the parent model");
  doc.AddChunk("parent_model", std::move(parent_bytes));
  GREATER_ASSIGN_OR_RETURN_CTX(std::string child_bytes,
                               child_model_.SerializeBinary(),
                               "serializing the child model");
  doc.AddChunk("child_model", std::move(child_bytes));
  return doc.Finish();
}

Status RelationalSynthesizer::DeserializeBinary(std::string_view bytes) {
  GREATER_ASSIGN_OR_RETURN(
      ArtifactReader doc,
      ArtifactReader::Parse(std::string(bytes), kRelationalKind,
                            kRelationalVersion));
  // Build into a fresh instance so a corrupt artifact can never leave
  // *this half-overwritten.
  RelationalSynthesizer loaded;
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("meta"));
    ByteReader r(payload);
    GREATER_RETURN_NOT_OK(r.GetString(&loaded.options_.synthetic_key_prefix));
    GREATER_RETURN_NOT_OK(r.GetString(&loaded.key_column_));
    uint32_t num_parent_features = 0;
    GREATER_RETURN_NOT_OK(r.GetU32(&num_parent_features));
    GREATER_RETURN_NOT_OK(r.CheckCount(num_parent_features, 4));
    loaded.parent_feature_columns_.resize(num_parent_features);
    for (uint32_t i = 0; i < num_parent_features; ++i) {
      GREATER_RETURN_NOT_OK(r.GetString(&loaded.parent_feature_columns_[i]));
    }
    uint32_t num_child_features = 0;
    GREATER_RETURN_NOT_OK(r.GetU32(&num_child_features));
    GREATER_RETURN_NOT_OK(r.CheckCount(num_child_features, 4));
    loaded.child_feature_columns_.resize(num_child_features);
    for (uint32_t i = 0; i < num_child_features; ++i) {
      GREATER_RETURN_NOT_OK(r.GetString(&loaded.child_feature_columns_[i]));
    }
    GREATER_RETURN_NOT_OK_CTX(ReadSchema(&r, &loaded.parent_schema_),
                              "relational parent schema");
    GREATER_RETURN_NOT_OK_CTX(ReadSchema(&r, &loaded.child_schema_),
                              "relational child schema");
    uint64_t num_counts = 0;
    GREATER_RETURN_NOT_OK(r.GetU64(&num_counts));
    if (num_counts > r.remaining() / 8) {
      return Status::DataLoss(
          "corrupt relational synthesizer: child-count list of " +
          std::to_string(num_counts) + " entries exceeds payload");
    }
    loaded.child_counts_.resize(num_counts);
    for (uint64_t i = 0; i < num_counts; ++i) {
      uint64_t count = 0;
      GREATER_RETURN_NOT_OK(r.GetU64(&count));
      loaded.child_counts_[i] = static_cast<size_t>(count);
    }
    if (!std::is_sorted(loaded.child_counts_.begin(),
                        loaded.child_counts_.end())) {
      return Status::DataLoss(
          "corrupt relational synthesizer: child-count list is not sorted");
    }
    GREATER_RETURN_NOT_OK(r.ExpectEnd());
  }
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload,
                             doc.Chunk("parent_model"));
    GREATER_RETURN_NOT_OK_CTX(loaded.parent_model_.DeserializeBinary(payload),
                              "relational parent model");
  }
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload,
                             doc.Chunk("child_model"));
    GREATER_RETURN_NOT_OK_CTX(loaded.child_model_.DeserializeBinary(payload),
                              "relational child model");
  }
  loaded.options_.parent = loaded.parent_model_.options();
  loaded.options_.child = loaded.child_model_.options();
  if (!loaded.parent_schema_.HasField(loaded.key_column_) ||
      !loaded.child_schema_.HasField(loaded.key_column_)) {
    return Status::DataLoss(
        "corrupt relational synthesizer: key column '" + loaded.key_column_ +
        "' missing from a stored schema");
  }
  loaded.fitted_ = true;
  *this = std::move(loaded);
  return Status::OK();
}

Status RelationalSynthesizer::Save(const std::string& path) const {
  GREATER_ASSIGN_OR_RETURN_CTX(
      std::string bytes, SerializeBinary(),
      "saving relational synthesizer to '" + path + "'");
  return AtomicWriteFile(path, bytes)
      .WithContext("saving relational synthesizer to '" + path + "'");
}

Status RelationalSynthesizer::Load(const std::string& path) {
  GREATER_ASSIGN_OR_RETURN_CTX(
      std::string bytes, ReadFileBytes(path),
      "loading relational synthesizer from '" + path + "'");
  return DeserializeBinary(bytes)
      .WithContext("loading relational synthesizer from '" + path + "'");
}

}  // namespace greater
