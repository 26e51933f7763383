#include "tabular/table.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

namespace surro::tabular {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  const std::size_t n = schema_.num_columns();
  slot_map_.resize(n);
  kinds_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    kinds_[i] = schema_.column(i).kind;
    if (kinds_[i] == ColumnKind::kNumerical) {
      slot_map_[i] = num_cols_.size();
      num_cols_.emplace_back();
    } else {
      slot_map_[i] = cat_cols_.size();
      cat_cols_.emplace_back();
      vocabs_.emplace_back();
    }
  }
}

std::size_t Table::slot_of(std::size_t col, ColumnKind kind) const {
  if (col >= kinds_.size()) {
    throw std::out_of_range("table: column index out of range");
  }
  if (kinds_[col] != kind) {
    throw std::invalid_argument("table: column '" + schema_.column(col).name +
                                "' has the wrong kind for this access");
  }
  return slot_map_[col];
}

std::span<const double> Table::numerical(std::size_t col) const {
  return num_cols_[slot_of(col, ColumnKind::kNumerical)];
}
std::span<double> Table::numerical_mut(std::size_t col) {
  return num_cols_[slot_of(col, ColumnKind::kNumerical)];
}
std::span<const std::int32_t> Table::categorical(std::size_t col) const {
  return cat_cols_[slot_of(col, ColumnKind::kCategorical)];
}
std::span<std::int32_t> Table::categorical_mut(std::size_t col) {
  return cat_cols_[slot_of(col, ColumnKind::kCategorical)];
}
const std::vector<std::string>& Table::vocabulary(std::size_t col) const {
  return vocabs_[slot_of(col, ColumnKind::kCategorical)];
}
std::size_t Table::cardinality(std::size_t col) const {
  return vocabulary(col).size();
}

std::optional<std::int32_t> Table::code_of(std::size_t col,
                                           const std::string& label) const {
  const auto& vocab = vocabs_[slot_of(col, ColumnKind::kCategorical)];
  for (std::size_t i = 0; i < vocab.size(); ++i) {
    if (vocab[i] == label) return static_cast<std::int32_t>(i);
  }
  return std::nullopt;
}

std::int32_t Table::intern(std::size_t col, const std::string& label) {
  auto& vocab = vocabs_[slot_of(col, ColumnKind::kCategorical)];
  for (std::size_t i = 0; i < vocab.size(); ++i) {
    if (vocab[i] == label) return static_cast<std::int32_t>(i);
  }
  vocab.push_back(label);
  return static_cast<std::int32_t>(vocab.size() - 1);
}

Table::RowBuilder::RowBuilder(Table& t) : table_(&t) {
  num_.assign(t.num_cols_.size(), 0.0);
  cat_.assign(t.cat_cols_.size(), 0);
  filled_.assign(t.schema_.num_columns(), false);
}

Table::RowBuilder& Table::RowBuilder::set(std::size_t col, double v) {
  num_[table_->slot_of(col, ColumnKind::kNumerical)] = v;
  filled_[col] = true;
  return *this;
}

Table::RowBuilder& Table::RowBuilder::set(std::size_t col,
                                          const std::string& label) {
  cat_[table_->slot_of(col, ColumnKind::kCategorical)] =
      table_->intern(col, label);
  filled_[col] = true;
  return *this;
}

Table::RowBuilder& Table::RowBuilder::set_code(std::size_t col,
                                               std::int32_t code) {
  const std::size_t slot = table_->slot_of(col, ColumnKind::kCategorical);
  if (code < 0 ||
      static_cast<std::size_t>(code) >= table_->vocabs_[slot].size()) {
    throw std::out_of_range("table: categorical code out of vocabulary");
  }
  cat_[slot] = code;
  filled_[col] = true;
  return *this;
}

void Table::append_row(const RowBuilder& row) {
  if (row.table_ != this) {
    throw std::invalid_argument("table: row built for a different table");
  }
  for (std::size_t c = 0; c < row.filled_.size(); ++c) {
    if (!row.filled_[c]) {
      throw std::invalid_argument("table: unset column '" +
                                  schema_.column(c).name + "' in row");
    }
  }
  for (std::size_t s = 0; s < num_cols_.size(); ++s) {
    num_cols_[s].push_back(row.num_[s]);
  }
  for (std::size_t s = 0; s < cat_cols_.size(); ++s) {
    cat_cols_[s].push_back(row.cat_[s]);
  }
  ++num_rows_;
}

void Table::append_row_values(std::span<const double> numerical_values,
                              std::span<const std::int32_t> categorical_codes) {
  if (numerical_values.size() != num_cols_.size() ||
      categorical_codes.size() != cat_cols_.size()) {
    throw std::invalid_argument("table: value-array arity mismatch");
  }
  for (std::size_t s = 0; s < num_cols_.size(); ++s) {
    num_cols_[s].push_back(numerical_values[s]);
  }
  for (std::size_t s = 0; s < cat_cols_.size(); ++s) {
    const std::int32_t code = categorical_codes[s];
    if (code < 0 || static_cast<std::size_t>(code) >= vocabs_[s].size()) {
      throw std::out_of_range("table: categorical code out of vocabulary");
    }
    cat_cols_[s].push_back(code);
  }
  ++num_rows_;
}

Table Table::select_rows(std::span<const std::size_t> indices) const {
  Table out(schema_);
  out.vocabs_ = vocabs_;
  for (auto& col : out.num_cols_) col.reserve(indices.size());
  for (auto& col : out.cat_cols_) col.reserve(indices.size());
  for (const std::size_t idx : indices) {
    if (idx >= num_rows_) throw std::out_of_range("table: row index");
    for (std::size_t s = 0; s < num_cols_.size(); ++s) {
      out.num_cols_[s].push_back(num_cols_[s][idx]);
    }
    for (std::size_t s = 0; s < cat_cols_.size(); ++s) {
      out.cat_cols_[s].push_back(cat_cols_[s][idx]);
    }
  }
  out.num_rows_ = indices.size();
  return out;
}

Table Table::head(std::size_t n) const {
  n = std::min(n, num_rows_);
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  return select_rows(idx);
}

void Table::append_table(const Table& other) {
  if (!(schema_ == other.schema_)) {
    throw std::invalid_argument("table: append with mismatched schema");
  }
  for (std::size_t s = 0; s < num_cols_.size(); ++s) {
    num_cols_[s].insert(num_cols_[s].end(), other.num_cols_[s].begin(),
                        other.num_cols_[s].end());
  }
  for (std::size_t s = 0; s < cat_cols_.size(); ++s) {
    // Merge vocabularies: build a remap from other's codes to ours.
    std::vector<std::int32_t> remap(other.vocabs_[s].size());
    for (std::size_t c = 0; c < other.vocabs_[s].size(); ++c) {
      const auto& label = other.vocabs_[s][c];
      std::int32_t code = -1;
      if (c < vocabs_[s].size() && vocabs_[s][c] == label) {
        remap[c] = static_cast<std::int32_t>(c);
        continue;
      }
      for (std::size_t i = 0; i < vocabs_[s].size(); ++i) {
        if (vocabs_[s][i] == label) {
          code = static_cast<std::int32_t>(i);
          break;
        }
      }
      if (code < 0) {
        vocabs_[s].push_back(label);
        code = static_cast<std::int32_t>(vocabs_[s].size() - 1);
      }
      remap[c] = code;
    }
    for (const std::int32_t c : other.cat_cols_[s]) {
      cat_cols_[s].push_back(remap[static_cast<std::size_t>(c)]);
    }
  }
  num_rows_ += other.num_rows_;
}

void Table::resize_rows(std::size_t n) {
  for (auto& col : num_cols_) col.resize(n, 0.0);
  for (auto& col : cat_cols_) col.resize(n, 0);
  num_rows_ = n;
}

void Table::reserve_rows(std::size_t n) {
  for (auto& col : num_cols_) col.reserve(n);
  for (auto& col : cat_cols_) col.reserve(n);
}

void Table::adopt_vocabulary(std::size_t col,
                             std::vector<std::string> vocab) {
  const std::size_t slot = slot_of(col, ColumnKind::kCategorical);
  const auto& current = vocabs_[slot];
  if (vocab.size() < current.size()) {
    throw std::invalid_argument("table: adopted vocabulary is smaller");
  }
  for (std::size_t i = 0; i < current.size(); ++i) {
    if (current[i] != vocab[i]) {
      throw std::invalid_argument(
          "table: adopted vocabulary is not prefix-compatible");
    }
  }
  vocabs_[slot] = std::move(vocab);
}

const std::string& Table::label_at(std::size_t col, std::size_t row) const {
  const std::size_t slot = slot_of(col, ColumnKind::kCategorical);
  const std::int32_t code = cat_cols_[slot].at(row);
  return vocabs_[slot].at(static_cast<std::size_t>(code));
}

}  // namespace surro::tabular
