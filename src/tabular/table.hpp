#pragma once
// Columnar mixed-type table: the in-memory representation of PanDA job
// records (and of every synthetic sample). Numerical columns store doubles;
// categorical columns store dictionary codes with a per-column vocabulary so
// metric code can work on dense int codes while I/O round-trips strings.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tabular/schema.hpp"

namespace surro::tabular {

class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  [[nodiscard]] const Schema& schema() const noexcept { return schema_; }
  [[nodiscard]] std::size_t num_rows() const noexcept { return num_rows_; }
  [[nodiscard]] std::size_t num_columns() const noexcept {
    return schema_.num_columns();
  }

  // --- column access (by schema column index) -------------------------------
  /// Numerical column data; throws std::invalid_argument for wrong kind.
  [[nodiscard]] std::span<const double> numerical(std::size_t col) const;
  [[nodiscard]] std::span<double> numerical_mut(std::size_t col);
  /// Categorical codes; throws for wrong kind.
  [[nodiscard]] std::span<const std::int32_t> categorical(
      std::size_t col) const;
  [[nodiscard]] std::span<std::int32_t> categorical_mut(std::size_t col);
  /// Vocabulary of a categorical column (code -> label).
  [[nodiscard]] const std::vector<std::string>& vocabulary(
      std::size_t col) const;
  /// Number of distinct categories of a categorical column.
  [[nodiscard]] std::size_t cardinality(std::size_t col) const;

  /// Lookup / intern a label for a categorical column. Interning may grow
  /// the vocabulary; lookup returns nullopt for unknown labels.
  [[nodiscard]] std::optional<std::int32_t> code_of(
      std::size_t col, const std::string& label) const;
  std::int32_t intern(std::size_t col, const std::string& label);

  // --- row building ----------------------------------------------------------
  /// A row under construction; values are keyed by schema column order.
  class RowBuilder {
   public:
    RowBuilder& set(std::size_t col, double v);
    RowBuilder& set(std::size_t col, const std::string& label);
    RowBuilder& set_code(std::size_t col, std::int32_t code);

   private:
    friend class Table;
    explicit RowBuilder(Table& t);
    Table* table_;
    std::vector<double> num_;
    std::vector<std::int32_t> cat_;
    std::vector<bool> filled_;
  };

  [[nodiscard]] RowBuilder make_row() { return RowBuilder(*this); }
  /// Commit a fully-populated row; throws if any column is unset.
  void append_row(const RowBuilder& row);

  /// Append a row given parallel per-kind value arrays in *schema order of
  /// that kind* (fast path for generators).
  void append_row_values(std::span<const double> numerical_values,
                         std::span<const std::int32_t> categorical_codes);

  // --- whole-table operations ------------------------------------------------
  /// Rows selected by index list, preserving vocabularies.
  [[nodiscard]] Table select_rows(std::span<const std::size_t> indices) const;
  /// First n rows (n clamped to size).
  [[nodiscard]] Table head(std::size_t n) const;
  /// Append all rows of another table with an identical schema; vocabularies
  /// are merged (codes are re-mapped as needed). Each of `other`'s labels is
  /// looked up once, at its own code first, so appending tables that share
  /// a vocabulary costs O(cardinality) per column, not O(cardinality²).
  void append_table(const Table& other);

  /// Resize every column to `n` rows. New numerical cells are 0.0 and new
  /// codes 0, so a decoder that grows a table this way must overwrite every
  /// new cell (numerical_mut / categorical_mut) and keep each code inside
  /// its column's vocabulary.
  void resize_rows(std::size_t n);

  /// Reserve storage for `n` rows in every column (no effect when n is not
  /// above the current capacity), so appends up to n rows do not regrow.
  void reserve_rows(std::size_t n);

  /// Force a categorical column's vocabulary (e.g., to share label coding
  /// between real and synthetic tables). Existing codes must remain valid
  /// (current vocabulary must be a prefix-compatible subset).
  void adopt_vocabulary(std::size_t col, std::vector<std::string> vocab);

  /// Human-readable label of a cell in a categorical column.
  [[nodiscard]] const std::string& label_at(std::size_t col,
                                            std::size_t row) const;

 private:
  [[nodiscard]] std::size_t slot_of(std::size_t col, ColumnKind kind) const;

  Schema schema_;
  std::size_t num_rows_ = 0;
  // slot_map_[col] -> index into the per-kind storage vectors.
  std::vector<std::size_t> slot_map_;
  std::vector<ColumnKind> kinds_;
  std::vector<std::vector<double>> num_cols_;
  std::vector<std::vector<std::int32_t>> cat_cols_;
  std::vector<std::vector<std::string>> vocabs_;
};

}  // namespace surro::tabular
