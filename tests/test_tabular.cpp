// Schema validation, table storage, CSV round trips, splits, and summaries.

#include <gtest/gtest.h>

#include "tabular/schema.hpp"
#include "tabular/split.hpp"
#include "tabular/stats.hpp"
#include "tabular/table.hpp"
#include "tabular/table_io.hpp"

namespace surro::tabular {
namespace {

Schema mixed_schema() {
  return Schema({{"x", ColumnKind::kNumerical},
                 {"cat", ColumnKind::kCategorical},
                 {"y", ColumnKind::kNumerical}});
}

Table small_table() {
  Table t(mixed_schema());
  const char* labels[] = {"a", "b", "a", "c", "b"};
  for (int i = 0; i < 5; ++i) {
    auto row = t.make_row();
    row.set(0, static_cast<double>(i));
    row.set(1, std::string(labels[i]));
    row.set(2, static_cast<double>(i) * 10.0);
    t.append_row(row);
  }
  return t;
}

// ------------------------------------------------------------------ schema --

TEST(Schema, IndexAndContains) {
  const Schema s = mixed_schema();
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_EQ(s.index_of("cat"), 1u);
  EXPECT_TRUE(s.contains("y"));
  EXPECT_FALSE(s.contains("nope"));
  EXPECT_THROW(s.index_of("nope"), std::out_of_range);
}

TEST(Schema, KindPartitions) {
  const Schema s = mixed_schema();
  EXPECT_EQ(s.numerical_indices(), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(s.categorical_indices(), (std::vector<std::size_t>{1}));
}

TEST(Schema, RejectsDuplicatesAndEmptyNames) {
  EXPECT_THROW(Schema({{"a", ColumnKind::kNumerical},
                       {"a", ColumnKind::kCategorical}}),
               std::invalid_argument);
  EXPECT_THROW(Schema({{"", ColumnKind::kNumerical}}),
               std::invalid_argument);
}

TEST(Schema, Equality) {
  EXPECT_TRUE(mixed_schema() == mixed_schema());
  const Schema other({{"x", ColumnKind::kCategorical}});
  EXPECT_FALSE(mixed_schema() == other);
}

// ------------------------------------------------------------------- table --

TEST(Table, AppendAndAccess) {
  const Table t = small_table();
  EXPECT_EQ(t.num_rows(), 5u);
  EXPECT_DOUBLE_EQ(t.numerical(0)[3], 3.0);
  EXPECT_DOUBLE_EQ(t.numerical(2)[4], 40.0);
  EXPECT_EQ(t.label_at(1, 0), "a");
  EXPECT_EQ(t.label_at(1, 3), "c");
  EXPECT_EQ(t.cardinality(1), 3u);
}

TEST(Table, WrongKindAccessThrows) {
  const Table t = small_table();
  EXPECT_THROW(t.numerical(1), std::invalid_argument);
  EXPECT_THROW(t.categorical(0), std::invalid_argument);
}

TEST(Table, IncompleteRowThrows) {
  Table t(mixed_schema());
  auto row = t.make_row();
  row.set(0, 1.0);
  EXPECT_THROW(t.append_row(row), std::invalid_argument);
}

TEST(Table, CodeOfAndIntern) {
  Table t = small_table();
  EXPECT_EQ(t.code_of(1, "b").value(), 1);
  EXPECT_FALSE(t.code_of(1, "zz").has_value());
  const auto code = t.intern(1, "zz");
  EXPECT_EQ(t.code_of(1, "zz").value(), code);
  EXPECT_EQ(t.cardinality(1), 4u);
}

TEST(Table, AppendRowValuesFastPath) {
  Table t = small_table();
  const std::vector<double> nums = {99.0, 990.0};
  const std::vector<std::int32_t> cats = {2};
  t.append_row_values(nums, cats);
  EXPECT_EQ(t.num_rows(), 6u);
  EXPECT_DOUBLE_EQ(t.numerical(0)[5], 99.0);
  EXPECT_EQ(t.label_at(1, 5), "a" == t.vocabulary(1)[2] ? "a" : t.vocabulary(1)[2]);
}

TEST(Table, AppendRowValuesRejectsBadCode) {
  Table t = small_table();
  const std::vector<double> nums = {0.0, 0.0};
  const std::vector<std::int32_t> cats = {99};
  EXPECT_THROW(t.append_row_values(nums, cats), std::out_of_range);
}

TEST(Table, SelectRowsPreservesVocab) {
  const Table t = small_table();
  const std::vector<std::size_t> idx = {4, 0};
  const Table sub = t.select_rows(idx);
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(sub.numerical(0)[0], 4.0);
  EXPECT_EQ(sub.label_at(1, 0), "b");
  EXPECT_EQ(sub.cardinality(1), 3u);  // vocab copied wholesale
}

TEST(Table, SelectRowsOutOfRangeThrows) {
  const Table t = small_table();
  const std::vector<std::size_t> idx = {99};
  EXPECT_THROW(t.select_rows(idx), std::out_of_range);
}

TEST(Table, Head) {
  const Table t = small_table();
  EXPECT_EQ(t.head(2).num_rows(), 2u);
  EXPECT_EQ(t.head(100).num_rows(), 5u);
}

TEST(Table, AppendTableMergesVocabularies) {
  Table a = small_table();
  Table b(mixed_schema());
  auto row = b.make_row();
  row.set(0, 7.0);
  row.set(1, std::string("zzz"));  // label unknown to a
  row.set(2, 70.0);
  b.append_row(row);

  a.append_table(b);
  EXPECT_EQ(a.num_rows(), 6u);
  EXPECT_EQ(a.label_at(1, 5), "zzz");
  EXPECT_EQ(a.cardinality(1), 4u);
}

TEST(Table, AppendTableRemapsDifferentlyOrderedVocabularies) {
  // Same labels, interned in different orders: a = [red, green],
  // b = [green, blue, red]. Appending must remap b's codes onto a's
  // vocabulary so every row keeps its *label*, not its code.
  const Schema schema({{"v", ColumnKind::kNumerical},
                       {"color", ColumnKind::kCategorical}});
  Table a(schema);
  for (const char* label : {"red", "green", "red"}) {
    auto row = a.make_row();
    row.set(0, static_cast<double>(a.num_rows()));
    row.set(1, std::string(label));
    a.append_row(row);
  }
  Table b(schema);
  for (const char* label : {"green", "blue", "red", "blue"}) {
    auto row = b.make_row();
    row.set(0, 100.0 + static_cast<double>(b.num_rows()));
    row.set(1, std::string(label));
    b.append_row(row);
  }
  // The two tables disagree on every shared code assignment.
  EXPECT_EQ(a.code_of(1, "green"), 1);
  EXPECT_EQ(b.code_of(1, "green"), 0);
  EXPECT_EQ(a.code_of(1, "red"), 0);
  EXPECT_EQ(b.code_of(1, "red"), 2);

  a.append_table(b);
  ASSERT_EQ(a.num_rows(), 7u);
  const std::vector<std::string> expected = {"red",  "green", "red", "green",
                                             "blue", "red",   "blue"};
  for (std::size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(a.label_at(1, r), expected[r]) << "row " << r;
  }
  // Merged vocabulary: a's order first, new labels appended.
  EXPECT_EQ(a.vocabulary(1),
            (std::vector<std::string>{"red", "green", "blue"}));
  // Remapped codes stay dense and valid.
  for (const std::int32_t code : a.categorical(1)) {
    EXPECT_GE(code, 0);
    EXPECT_LT(code, 3);
  }
  // b itself is untouched by the merge.
  EXPECT_EQ(b.label_at(1, 0), "green");
  EXPECT_EQ(b.cardinality(1), 3u);
}

TEST(Table, ReserveRowsLetsAppendsFillWithoutRegrowing) {
  const Table chunk = small_table();
  Table t = chunk;
  t.reserve_rows(6 * chunk.num_rows());
  const double* num = t.numerical(0).data();
  const std::int32_t* codes = t.categorical(1).data();
  for (int i = 0; i < 5; ++i) t.append_table(chunk);
  ASSERT_EQ(t.num_rows(), 30u);
  EXPECT_EQ(t.numerical(0).data(), num);
  EXPECT_EQ(t.categorical(1).data(), codes);
  EXPECT_EQ(t.label_at(1, 28), "c");
  t.reserve_rows(1);  // below the size: no effect
  EXPECT_EQ(t.num_rows(), 30u);
  EXPECT_EQ(t.numerical(0).data(), num);
}

TEST(Table, AppendTableSchemaMismatchThrows) {
  Table a = small_table();
  Table b{Schema({{"q", ColumnKind::kNumerical}})};
  EXPECT_THROW(a.append_table(b), std::invalid_argument);
}

TEST(Table, AdoptVocabulary) {
  Table t(mixed_schema());
  t.intern(1, "a");
  t.adopt_vocabulary(1, {"a", "b", "c"});
  EXPECT_EQ(t.cardinality(1), 3u);
  // Prefix-incompatible adoption fails.
  EXPECT_THROW(t.adopt_vocabulary(1, {"x", "b", "c"}),
               std::invalid_argument);
  // Shrinking fails.
  EXPECT_THROW(t.adopt_vocabulary(1, {"a"}), std::invalid_argument);
}

// --------------------------------------------------------------------- io --

TEST(TableIo, CsvRoundTrip) {
  const Table t = small_table();
  const std::string csv = to_csv(t);
  const Table back = from_csv(t.schema(), csv);
  ASSERT_EQ(back.num_rows(), t.num_rows());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(back.numerical(0)[r], t.numerical(0)[r]);
    EXPECT_DOUBLE_EQ(back.numerical(2)[r], t.numerical(2)[r]);
    EXPECT_EQ(back.label_at(1, r), t.label_at(1, r));
  }
}

TEST(TableIo, RoundTripPreservesFullPrecision) {
  Table t{Schema({{"v", ColumnKind::kNumerical}})};
  auto row = t.make_row();
  row.set(0, 0.1234567890123456789);
  t.append_row(row);
  const Table back = from_csv(t.schema(), to_csv(t));
  EXPECT_DOUBLE_EQ(back.numerical(0)[0], t.numerical(0)[0]);
}

TEST(TableIo, MissingColumnThrows) {
  EXPECT_THROW(from_csv(mixed_schema(), "x,cat\n1,a\n"), std::runtime_error);
}

TEST(TableIo, BadNumericCellThrows) {
  EXPECT_THROW(from_csv(mixed_schema(), "x,cat,y\noops,a,2\n"),
               std::runtime_error);
}

TEST(TableIo, ExtraCsvColumnsIgnored) {
  const Table t =
      from_csv(mixed_schema(), "x,cat,extra,y\n1,a,junk,2\n");
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(t.numerical(2)[0], 2.0);
}

// ------------------------------------------------------------------- split --

TEST(Split, ShuffledKeepsAllRows) {
  const Table t = small_table();
  util::Rng rng(1);
  const Table s = shuffled(t, rng);
  EXPECT_EQ(s.num_rows(), t.num_rows());
  double sum = 0.0;
  for (const double v : s.numerical(0)) sum += v;
  EXPECT_DOUBLE_EQ(sum, 0.0 + 1 + 2 + 3 + 4);
}

TEST(Split, TrainTestProportions) {
  Table t(mixed_schema());
  for (int i = 0; i < 100; ++i) {
    auto row = t.make_row();
    row.set(0, static_cast<double>(i));
    row.set(1, std::string("x"));
    row.set(2, 0.0);
    t.append_row(row);
  }
  util::Rng rng(2);
  const auto split = train_test_split(t, 0.8, rng);
  EXPECT_EQ(split.train.num_rows(), 80u);
  EXPECT_EQ(split.test.num_rows(), 20u);
}

TEST(Split, InvalidFractionThrows) {
  const Table t = small_table();
  util::Rng rng(3);
  EXPECT_THROW(train_test_split(t, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(train_test_split(t, 1.0, rng), std::invalid_argument);
}

TEST(Split, FoldRangesCoverEverything) {
  const auto folds = fold_ranges(10, 3);
  ASSERT_EQ(folds.size(), 3u);
  EXPECT_EQ(folds[0], (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(folds[2].second, 10u);
}

// ------------------------------------------------------------------- stats --

TEST(Stats, NumericalSummary) {
  const Table t = small_table();
  const auto s = summarize_numerical(t, 0);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_EQ(s.num_unique, 5u);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
}

TEST(Stats, CategoricalSummaryTopCounts) {
  const Table t = small_table();
  const auto s = summarize_categorical(t, 1, 2);
  EXPECT_EQ(s.cardinality, 3u);
  ASSERT_EQ(s.top_counts.size(), 2u);
  // a and b both occur twice; ties break alphabetically.
  EXPECT_EQ(s.top_counts[0].first, "a");
  EXPECT_EQ(s.top_counts[0].second, 2u);
}

TEST(Stats, CategoryFrequenciesSumToOne) {
  const Table t = small_table();
  const auto freq = category_frequencies(t, 1);
  double sum = 0.0;
  for (const double f : freq) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Stats, ProfileLinesMentionEveryColumn) {
  const Table t = small_table();
  const auto lines = profile_lines(t);
  ASSERT_EQ(lines.size(), 4u);  // header + 3 columns
  EXPECT_NE(lines[1].find("x"), std::string::npos);
  EXPECT_NE(lines[2].find("categorical"), std::string::npos);
}

}  // namespace
}  // namespace surro::tabular
