#include <gtest/gtest.h>

#include "tabular/csv.h"
#include "tabular/table.h"
#include "tabular/table_builder.h"
#include "tabular/validate.h"

namespace greater {
namespace {

// ---------- Value ----------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(3).is_int());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("abc").as_string(), "abc");
}

TEST(ValueTest, StrictEqualityDistinguishesTypes) {
  // The Fig. 2 ambiguity is a *textual* phenomenon; Value keeps int 1,
  // double 1.0 and string "1" distinct.
  const Value int_one(1);
  const Value double_one(1.0);
  const Value string_one("1");
  EXPECT_NE(int_one, double_one);
  EXPECT_NE(int_one, string_one);
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_EQ(Value(), Value::Null());
}

TEST(ValueTest, DisplayStrings) {
  EXPECT_EQ(Value().ToDisplayString(), "");
  EXPECT_EQ(Value(42).ToDisplayString(), "42");
  EXPECT_EQ(Value(2.5).ToDisplayString(), "2.5");
  EXPECT_EQ(Value(3.0).ToDisplayString(), "3");
  EXPECT_EQ(Value("hi").ToDisplayString(), "hi");
}

TEST(ValueTest, OrderingIsTotalAndTypeFirst) {
  EXPECT_LT(Value(), Value(1));          // null < int
  EXPECT_LT(Value(5), Value(1.0));       // int < double (type order)
  EXPECT_LT(Value(2.0), Value("a"));     // double < string
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value("a"), Value("b"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(5).Hash(), Value(5).Hash());
  EXPECT_NE(Value(1).Hash(), Value("1").Hash());
}

TEST(ValueTest, AsNumericWidensInts) {
  EXPECT_DOUBLE_EQ(Value(3).AsNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value(1.5).AsNumeric(), 1.5);
  EXPECT_DOUBLE_EQ(Value("x").AsNumeric(), 0.0);
}

// ---------- Schema ----------

TEST(SchemaTest, MakeRejectsDuplicates) {
  auto r = Schema::Make({Field("a", ValueType::kInt),
                         Field("a", ValueType::kString)});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, FieldLookup) {
  Schema s({Field("a", ValueType::kInt), Field("b", ValueType::kString)});
  EXPECT_EQ(s.FieldIndex("b").ValueOrDie(), 1u);
  EXPECT_FALSE(s.FieldIndex("c").ok());
  EXPECT_TRUE(s.HasField("a"));
  EXPECT_FALSE(s.HasField("z"));
}

TEST(SchemaTest, RemoveFieldReindexes) {
  Schema s({Field("a", ValueType::kInt), Field("b", ValueType::kInt),
            Field("c", ValueType::kInt)});
  ASSERT_TRUE(s.RemoveField("b").ok());
  EXPECT_EQ(s.num_fields(), 2u);
  EXPECT_EQ(s.FieldIndex("c").ValueOrDie(), 1u);
}

// ---------- Table ----------

Table MakeToyTable() {
  Schema schema({Field("name", ValueType::kString),
                 Field("lunch", ValueType::kInt),
                 Field("dinner", ValueType::kInt)});
  Table t(schema);
  EXPECT_TRUE(t.AppendRow({Value("Grace"), Value(1), Value(2)}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Yin"), Value(1), Value(1)}).ok());
  EXPECT_TRUE(t.AppendRow({Value("Anson"), Value(2), Value(2)}).ok());
  return t;
}

TEST(TableTest, AppendRowValidatesArityAndType) {
  Table t = MakeToyTable();
  EXPECT_FALSE(t.AppendRow({Value("x"), Value(1)}).ok());
  EXPECT_FALSE(t.AppendRow({Value(5), Value(1), Value(1)}).ok());
  EXPECT_TRUE(t.AppendRow({Value::Null(), Value(9), Value(9)}).ok());
}

TEST(TableTest, IntWidensIntoDoubleColumns) {
  Schema schema({Field("x", ValueType::kDouble)});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value(3)}).ok());
  EXPECT_TRUE(t.at(0, 0).is_double());
  EXPECT_DOUBLE_EQ(t.at(0, 0).as_double(), 3.0);
}

TEST(TableTest, SelectReordersColumns) {
  Table t = MakeToyTable();
  Table s = t.Select({"dinner", "name"}).ValueOrDie();
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.schema().field(0).name, "dinner");
  EXPECT_EQ(s.at(0, 1).as_string(), "Grace");
}

TEST(TableTest, SelectUnknownColumnFails) {
  EXPECT_FALSE(MakeToyTable().Select({"zzz"}).ok());
}

TEST(TableTest, DropColumns) {
  Table t = MakeToyTable();
  Table d = t.DropColumns({"lunch"}).ValueOrDie();
  EXPECT_EQ(d.num_columns(), 2u);
  EXPECT_FALSE(d.schema().HasField("lunch"));
  EXPECT_FALSE(t.DropColumns({"missing"}).ok());
}

TEST(TableTest, TakeRowsAllowsDuplicates) {
  Table t = MakeToyTable();
  Table taken = t.TakeRows({2, 2, 0});
  EXPECT_EQ(taken.num_rows(), 3u);
  EXPECT_EQ(taken.at(0, 0).as_string(), "Anson");
  EXPECT_EQ(taken.at(1, 0).as_string(), "Anson");
  EXPECT_EQ(taken.at(2, 0).as_string(), "Grace");
}

TEST(TableTest, UniqueRowsRemovesDuplicatesKeepingOrder) {
  Table t = MakeToyTable();
  ASSERT_TRUE(t.AppendRow({Value("Grace"), Value(1), Value(2)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("Yin"), Value(1), Value(1)}).ok());
  Table u = t.UniqueRows();
  EXPECT_EQ(u.num_rows(), 3u);
  EXPECT_EQ(u.at(0, 0).as_string(), "Grace");
}

TEST(TableTest, UniqueRowsDistinguishesTypes) {
  Schema schema({Field("x", ValueType::kString)});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value("1")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value("1")}).ok());
  EXPECT_EQ(t.UniqueRows().num_rows(), 2u);
}

TEST(TableTest, DistinctValuesOrderOfFirstAppearance) {
  Table t = MakeToyTable();
  auto vals = t.DistinctValues("lunch").ValueOrDie();
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0], Value(1));
  EXPECT_EQ(vals[1], Value(2));
}

TEST(TableTest, ValueCounts) {
  Table t = MakeToyTable();
  auto counts = t.ValueCounts("lunch").ValueOrDie();
  EXPECT_EQ(counts[Value(1)], 2u);
  EXPECT_EQ(counts[Value(2)], 1u);
}

TEST(TableTest, GroupByColumn) {
  Table t = MakeToyTable();
  auto groups = t.GroupByColumn("dinner").ValueOrDie();
  EXPECT_EQ(groups[Value(2)].size(), 2u);
  EXPECT_EQ(groups[Value(1)].size(), 1u);
}

TEST(TableTest, AddReplaceRenameColumn) {
  Table t = MakeToyTable();
  ASSERT_TRUE(t.AddColumn(Field("genre", ValueType::kInt),
                          {Value(1), Value(1), Value(2)})
                  .ok());
  EXPECT_EQ(t.num_columns(), 4u);
  EXPECT_FALSE(t.AddColumn(Field("bad", ValueType::kInt), {Value(1)}).ok());
  ASSERT_TRUE(t.ReplaceColumn("genre", {Value(9), Value(9), Value(9)}).ok());
  EXPECT_EQ(t.at(2, 3).as_int(), 9);
  ASSERT_TRUE(t.RenameColumn("genre", "category").ok());
  EXPECT_TRUE(t.schema().HasField("category"));
  EXPECT_FALSE(t.RenameColumn("category", "name").ok());
}

TEST(TableTest, AppendTableRequiresEqualSchema) {
  Table a = MakeToyTable();
  Table b = MakeToyTable();
  ASSERT_TRUE(a.AppendTable(b).ok());
  EXPECT_EQ(a.num_rows(), 6u);
  Table c(Schema({Field("other", ValueType::kInt)}));
  EXPECT_FALSE(a.AppendTable(c).ok());
}

TEST(TableTest, FilterRows) {
  Table t = MakeToyTable();
  const Value one(1);
  Table f = t.FilterRows([&](size_t r) { return t.at(r, 1) == one; });
  EXPECT_EQ(f.num_rows(), 2u);
}

// ---------- CSV ----------

TEST(CsvTest, RoundTrip) {
  Table t = MakeToyTable();
  std::string csv = WriteCsvString(t);
  Table back = ReadCsvString(csv).ValueOrDie();
  EXPECT_EQ(back.num_rows(), t.num_rows());
  EXPECT_EQ(back.at(1, 0).as_string(), "Yin");
  EXPECT_EQ(back.at(1, 1).as_int(), 1);
}

TEST(CsvTest, TypeInference) {
  Table t = ReadCsvString("a,b,c\n1,1.5,x\n2,2,y\n").ValueOrDie();
  EXPECT_EQ(t.schema().field(0).type, ValueType::kInt);
  EXPECT_EQ(t.schema().field(1).type, ValueType::kDouble);
  EXPECT_EQ(t.schema().field(2).type, ValueType::kString);
  EXPECT_EQ(t.schema().field(1).semantic, SemanticType::kContinuous);
}

TEST(CsvTest, QuotedFieldsWithCommasAndNewlines) {
  std::string csv = "a,b\n\"x,y\",\"line1\nline2\"\n";
  Table t = ReadCsvString(csv).ValueOrDie();
  EXPECT_EQ(t.at(0, 0).as_string(), "x,y");
  EXPECT_EQ(t.at(0, 1).as_string(), "line1\nline2");
  // And the writer escapes them back.
  Table back = ReadCsvString(WriteCsvString(t)).ValueOrDie();
  EXPECT_EQ(back.at(0, 0).as_string(), "x,y");
}

TEST(CsvTest, EscapedQuotes) {
  Table t = ReadCsvString("a\n\"he said \"\"hi\"\"\"\n").ValueOrDie();
  EXPECT_EQ(t.at(0, 0).as_string(), "he said \"hi\"");
}

TEST(CsvTest, EmptyCellsAreNull) {
  Table t = ReadCsvString("a,b\n1,\n,2\n").ValueOrDie();
  EXPECT_TRUE(t.at(0, 1).is_null());
  EXPECT_TRUE(t.at(1, 0).is_null());
}

TEST(CsvTest, RaggedRecordFails) {
  EXPECT_FALSE(ReadCsvString("a,b\n1\n").ok());
}

TEST(CsvTest, RaggedRecordNamesOneBasedRecordNumber) {
  // Header is record 1; the bad data record here is record 3.
  auto result = ReadCsvString("a,b\n1,2\n3\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status().message().find("record 3"), std::string::npos)
      << result.status().ToString();
}

TEST(CsvTest, Utf8BomIsStripped) {
  Table t = ReadCsvString("\xEF\xBB\xBF"
                          "a,b\n1,2\n")
                .ValueOrDie();
  EXPECT_EQ(t.schema().field(0).name, "a");
  EXPECT_EQ(t.at(0, 0).as_int(), 1);
}

TEST(CsvTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(ReadCsvString("a\n\"oops\n").ok());
}

TEST(CsvTest, CrLfHandled) {
  Table t = ReadCsvString("a,b\r\n1,2\r\n").ValueOrDie();
  EXPECT_EQ(t.at(0, 1).as_int(), 2);
}

TEST(CsvTest, CrLfWithBomAndQuotes) {
  Table t = ReadCsvString("\xEF\xBB\xBF"
                          "name,score\r\n\"smith, j\",3\r\nlee,4\r\n")
                .ValueOrDie();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.schema().field(0).name, "name");
  EXPECT_EQ(t.at(0, 0).as_string(), "smith, j");
  EXPECT_EQ(t.at(1, 1).as_int(), 4);
}

TEST(CsvTest, NoInferenceReadsStrings) {
  CsvReadOptions options;
  options.infer_types = false;
  Table t = ReadCsvString("a\n42\n", options).ValueOrDie();
  EXPECT_TRUE(t.at(0, 0).is_string());
}

TEST(CsvTest, MissingFileIsNotFound) {
  auto r = ReadCsvFile("/nonexistent/path.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CsvTest, FileRoundTrip) {
  Table t = MakeToyTable();
  std::string path = testing::TempDir() + "/greater_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  Table back = ReadCsvFile(path).ValueOrDie();
  EXPECT_EQ(back.num_rows(), 3u);
}

// ---------- Validators ----------

TEST(ValidateTest, WellFormedTablePasses) {
  Table t = MakeToyTable();
  EXPECT_TRUE(ValidateRectangular(t, "toy").ok());
  EXPECT_TRUE(ValidateCategoricalDomains(t, "toy").ok());
  EXPECT_TRUE(ValidateKeyColumn(t, "name", "toy").ok());
  EXPECT_TRUE(ValidateStageInput(t, "name", "toy").ok());
}

TEST(ValidateTest, MissingKeyColumnIsNotFound) {
  Table t = MakeToyTable();
  Status s = ValidateKeyColumn(t, "no_such_column", "toy");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("toy"), std::string::npos);
}

TEST(ValidateTest, NullKeyIsInvalid) {
  Table t = MakeToyTable();
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value(1), Value(1)}).ok());
  Status s = ValidateKeyColumn(t, "name", "toy");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("name"), std::string::npos);
}

TEST(ValidateTest, DuplicateKeyFailsOnlyWhenUniquenessRequired) {
  Table t = MakeToyTable();
  ASSERT_TRUE(t.AppendRow({Value("Grace"), Value(2), Value(1)}).ok());
  EXPECT_TRUE(ValidateKeyColumn(t, "name", "toy").ok());
  Status s = ValidateKeyColumn(t, "name", "toy", /*require_unique=*/true);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("Grace"), std::string::npos);
}

TEST(ValidateTest, AllNullCategoricalDomainIsInvalid) {
  Schema schema({Field("k", ValueType::kString),
                 Field("empty_cat", ValueType::kString)});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value("a"), Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value("b"), Value::Null()}).ok());
  Status s = ValidateCategoricalDomains(t, "toy");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("empty_cat"), std::string::npos);
}

TEST(ValidateTest, EmptyTableFailsStageInput) {
  Schema schema({Field("k", ValueType::kString)});
  Table t(schema);
  EXPECT_FALSE(ValidateStageInput(t, "k", "toy").ok());
}

TEST(ValidateTest, IntCellsInDoubleColumnsAreWidenedAndPass) {
  Schema schema({Field("k", ValueType::kString),
                 Field("x", ValueType::kDouble, SemanticType::kContinuous)});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value("a"), Value(3)}).ok());
  EXPECT_TRUE(ValidateRectangular(t, "toy").ok());
}

TEST(TableBuilderTest, BuildMatchesAppendRowTable) {
  Schema schema({Field("name", ValueType::kString),
                 Field("age", ValueType::kInt),
                 Field("score", ValueType::kDouble)});
  Table reference(schema);
  TableBuilder builder(schema);
  builder.Reserve(3);
  std::vector<Row> rows = {
      {Value("a"), Value(1), Value(0.5)},
      {Value("b"), Value(2), Value(3)},  // int widens into double column
      {Value("c"), Value(3), Value::Null()},
  };
  for (const Row& row : rows) {
    ASSERT_TRUE(reference.AppendRow(row).ok());
    ASSERT_TRUE(builder.AppendRow(row).ok());
  }
  Table built = builder.Build().ValueOrDie();
  ASSERT_EQ(built.num_rows(), reference.num_rows());
  for (size_t r = 0; r < built.num_rows(); ++r) {
    EXPECT_EQ(built.GetRow(r), reference.GetRow(r)) << "row " << r;
  }
  // The builder is reusable after Build: schema kept, rows cleared.
  EXPECT_EQ(builder.num_rows(), 0u);
  ASSERT_TRUE(builder.AppendRow(rows[0]).ok());
  EXPECT_EQ(builder.Build().ValueOrDie().num_rows(), 1u);
}

TEST(TableBuilderTest, CellwiseAppendEnforcesSchemaOrderAndCommit) {
  Schema schema({Field("k", ValueType::kString),
                 Field("n", ValueType::kInt)});
  TableBuilder builder(schema);
  // Out-of-order appends and premature commits are rejected, and the
  // in-progress row rolls back to the last committed one.
  ASSERT_TRUE(builder.AppendCell(0, Value("x")).ok());
  EXPECT_FALSE(builder.AppendCell(0, Value("dup")).ok());
  ASSERT_TRUE(builder.AppendCell(0, Value("a")).ok());
  EXPECT_FALSE(builder.CommitRow().ok());
  ASSERT_TRUE(builder.AppendCell(0, Value("a")).ok());
  ASSERT_TRUE(builder.AppendCell(1, Value(7)).ok());
  ASSERT_TRUE(builder.CommitRow().ok());
  Table t = builder.Build().ValueOrDie();
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 1), Value(7));
}

TEST(TableBuilderTest, TypeMismatchRollsBackPartialRow) {
  Schema schema({Field("k", ValueType::kString),
                 Field("n", ValueType::kInt)});
  TableBuilder builder(schema);
  ASSERT_TRUE(builder.AppendRow({Value("ok"), Value(1)}).ok());
  Status s = builder.AppendRow({Value("bad"), Value("not-an-int")});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The failed row left no partial cells behind.
  Table t = builder.Build().ValueOrDie();
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0), Value("ok"));
}

}  // namespace
}  // namespace greater
