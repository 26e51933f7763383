#include "models/smote.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/serialize.hpp"

namespace surro::models {

Smote::Smote(SmoteConfig cfg) : cfg_(cfg) {
  if (cfg_.k_neighbors == 0) {
    throw std::invalid_argument("smote: k_neighbors must be positive");
  }
}

void Smote::fit(const tabular::Table& train, const FitOptions& opts) {
  if (fitted_) throw std::logic_error("smote: fit called twice");
  if (train.num_rows() < 2) {
    throw std::invalid_argument("smote: need at least two training rows");
  }
  if (opts.cancelled()) throw FitCancelled(name());
  encoder_.fit(train, cfg_.num_quantiles);

  const auto& num_cols = encoder_.numerical_columns();
  const std::size_t n = train.num_rows();
  numerical_.resize(n, num_cols.size());
  for (std::size_t k = 0; k < num_cols.size(); ++k) {
    const auto col = train.numerical(num_cols[k]);
    const auto& qt = encoder_.transformer(k);
    for (std::size_t r = 0; r < n; ++r) {
      numerical_(r, k) = static_cast<float>(qt.transform_one(col[r]));
    }
  }

  cat_codes_.clear();
  for (const auto& block : encoder_.blocks()) {
    const auto codes = train.categorical(block.column);
    cat_codes_.emplace_back(codes.begin(), codes.end());
  }

  tree_ = std::make_unique<knn::KdTree>(numerical_);
  indexed_rows_ = numerical_.rows();
  build_neighbor_table();
  fitted_ = true;
  // SMOTE "trains" in a single pass; report it as one completed epoch.
  if (opts.on_progress) opts.on_progress({1, 1, 0.0f});
}

void Smote::warm_fit(const tabular::Table& delta,
                     const RefreshOptions& /*opts*/) {
  if (!fitted_) throw std::logic_error("smote: warm_fit before fit");
  const std::size_t d = delta.num_rows();
  if (d == 0) return;

  // Validate the whole delta before mutating anything: a rejected refresh
  // must leave the fitted state exactly as it was (numerical_ and
  // cat_codes_ row counts must never diverge).
  for (std::size_t bi = 0; bi < cat_codes_.size(); ++bi) {
    const auto cardinality =
        static_cast<std::int32_t>(encoder_.blocks()[bi].cardinality);
    for (const std::int32_t code :
         delta.categorical(encoder_.blocks()[bi].column)) {
      if (code < 0 || code >= cardinality) {
        throw std::invalid_argument(
            "smote: delta code outside the fitted vocabulary");
      }
    }
  }

  // Transform the delta through the frozen fit-time quantile maps and grow
  // the numerical slice (the matrix is dense row-major, so growing is one
  // copy — still O(n) instead of the O(n log n) transform refit).
  const auto& num_cols = encoder_.numerical_columns();
  const std::size_t old_n = numerical_.rows();
  linalg::Matrix grown(old_n + d, num_cols.size());
  std::copy_n(numerical_.data(), numerical_.size(), grown.data());
  for (std::size_t k = 0; k < num_cols.size(); ++k) {
    const auto col = delta.numerical(num_cols[k]);
    const auto& qt = encoder_.transformer(k);
    for (std::size_t r = 0; r < d; ++r) {
      grown(old_n + r, k) = static_cast<float>(qt.transform_one(col[r]));
    }
  }
  numerical_ = std::move(grown);
  neighbor_table_.clear();
  neighbor_width_ = 0;

  for (std::size_t bi = 0; bi < cat_codes_.size(); ++bi) {
    const auto codes = delta.categorical(encoder_.blocks()[bi].column);
    cat_codes_[bi].insert(cat_codes_[bi].end(), codes.begin(), codes.end());
  }

  // Consolidate once the brute-force tail would dominate query time.
  if (numerical_.rows() - indexed_rows_ > indexed_rows_) {
    tree_ = std::make_unique<knn::KdTree>(numerical_);
    indexed_rows_ = numerical_.rows();
  }
}

std::vector<knn::Neighbor> Smote::neighbors_of(std::size_t base) const {
  auto neighbors = tree_->query(
      numerical_.row(base), cfg_.k_neighbors,
      base < indexed_rows_ ? static_cast<std::ptrdiff_t>(base) : -1);
  const std::size_t n = numerical_.rows();
  if (indexed_rows_ < n) {
    const auto point = numerical_.row(base);
    const std::size_t m = numerical_.cols();
    for (std::size_t r = indexed_rows_; r < n; ++r) {
      if (r == base) continue;
      const auto row = numerical_.row(r);
      float dist_sq = 0.0f;
      for (std::size_t k = 0; k < m; ++k) {
        const float diff = point[k] - row[k];
        dist_sq += diff * diff;
      }
      neighbors.push_back({r, dist_sq});
    }
    std::sort(neighbors.begin(), neighbors.end(),
              [](const knn::Neighbor& a, const knn::Neighbor& b) {
                return a.dist_sq != b.dist_sq ? a.dist_sq < b.dist_sq
                                              : a.index < b.index;
              });
    if (neighbors.size() > cfg_.k_neighbors) {
      neighbors.resize(cfg_.k_neighbors);
    }
  }
  return neighbors;
}

void Smote::build_neighbor_table() {
  const std::size_t n = numerical_.rows();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("smote: too many rows for the neighbour table");
  }
  neighbor_width_ = std::min(cfg_.k_neighbors, n - 1);
  neighbor_table_.assign(n * neighbor_width_, 0);
  for (std::size_t b = 0; b < n; ++b) {
    const auto neighbors = neighbors_of(b);
    std::uint32_t* row = neighbor_table_.data() + b * neighbor_width_;
    for (std::size_t j = 0; j < neighbor_width_; ++j) {
      row[j] = static_cast<std::uint32_t>(neighbors[j].index);
    }
  }
}

tabular::Table Smote::sample_chunk(std::size_t n, std::uint64_t seed) {
  if (!fitted_) throw std::logic_error("smote: sample before fit");
  util::Rng rng(seed);

  tabular::Table out = encoder_.make_empty_table();
  const std::size_t m = numerical_.cols();
  const std::size_t train_n = numerical_.rows();
  std::vector<double> num_vals(m);
  std::vector<std::int32_t> cat_vals(cat_codes_.size());

  for (std::size_t s = 0; s < n; ++s) {
    const auto base = static_cast<std::size_t>(rng.uniform_index(train_n));
    // The table row and neighbors_of(base) hold the same neighbours in the
    // same order, so both paths draw the same `other` from the same rng.
    std::size_t other = base;
    if (!neighbor_table_.empty()) {
      other = neighbor_table_[base * neighbor_width_ +
                              rng.uniform_index(neighbor_width_)];
    } else if (const auto neighbors = neighbors_of(base); !neighbors.empty()) {
      other = neighbors[rng.uniform_index(neighbors.size())].index;
    }
    const double u = rng.uniform();

    for (std::size_t k = 0; k < m; ++k) {
      const double a = static_cast<double>(numerical_(base, k));
      const double b = static_cast<double>(numerical_(other, k));
      const double z = a + u * (b - a);
      num_vals[k] = encoder_.transformer(k).inverse_one(z);
    }
    for (std::size_t bi = 0; bi < cat_codes_.size(); ++bi) {
      const std::size_t donor = rng.uniform() < u ? other : base;
      cat_vals[bi] = cat_codes_[bi][donor];
    }
    out.append_row_values(num_vals, cat_vals);
  }
  return out;
}

void Smote::save(std::ostream& os) const {
  if (!fitted_) throw std::logic_error("smote: save before fit");
  util::io::write_tag(os, "SMOT");
  util::io::write_u32(os, 1);  // payload version
  util::io::write_u64(os, cfg_.k_neighbors);
  util::io::write_u64(os, cfg_.num_quantiles);
  encoder_.save(os);
  linalg::save_matrix(os, numerical_);
  util::io::write_u64(os, cat_codes_.size());
  for (const auto& codes : cat_codes_) util::io::write_vec_i32(os, codes);
}

void Smote::load(std::istream& is) {
  if (fitted_) throw std::logic_error("smote: load into fitted model");
  util::io::expect_tag(is, "SMOT");
  const std::uint32_t version = util::io::read_u32(is);
  if (version != 1) throw std::runtime_error("smote: unsupported payload");
  cfg_.k_neighbors = static_cast<std::size_t>(util::io::read_u64(is));
  cfg_.num_quantiles = static_cast<std::size_t>(util::io::read_u64(is));
  encoder_.load(is);
  numerical_ = linalg::load_matrix(is);
  cat_codes_.resize(util::io::read_count(is));
  for (auto& codes : cat_codes_) codes = util::io::read_vec_i32(is);

  // Cross-field validation so corrupt archives fail here rather than as
  // out-of-range donor lookups during sampling.
  if (cfg_.k_neighbors == 0 || numerical_.rows() < 2 ||
      numerical_.cols() != encoder_.num_numerical() ||
      cat_codes_.size() != encoder_.blocks().size()) {
    throw std::runtime_error("smote: corrupt fitted state");
  }
  for (std::size_t bi = 0; bi < cat_codes_.size(); ++bi) {
    const auto cardinality =
        static_cast<std::int32_t>(encoder_.blocks()[bi].cardinality);
    if (cat_codes_[bi].size() != numerical_.rows()) {
      throw std::runtime_error("smote: corrupt categorical codes");
    }
    for (const std::int32_t code : cat_codes_[bi]) {
      if (code < 0 || code >= cardinality) {
        throw std::runtime_error("smote: code outside vocabulary");
      }
    }
  }
  // The k-d tree and the neighbour table are pure functions of the
  // numerical slice — rebuild them instead of shipping their internals (any
  // warm-appended tail consolidates into the tree here as a side effect).
  tree_ = std::make_unique<knn::KdTree>(numerical_);
  indexed_rows_ = numerical_.rows();
  build_neighbor_table();
  fitted_ = true;
}

std::unique_ptr<TabularGenerator> Smote::clone() const {
  std::stringstream buffer;
  save(buffer);
  auto copy = std::make_unique<Smote>(cfg_);
  copy->load(buffer);
  return copy;
}

namespace {
const RegisterGenerator kRegisterSmote{{
    "smote",
    "SMOTE",
    "k-NN interpolation baseline (Chawla et al., 2002); no training, "
    "near-memorization privacy profile",
    [](const TrainBudget& /*budget*/, std::uint64_t /*seed*/) {
      return std::make_unique<Smote>();
    },
}};
}  // namespace

}  // namespace surro::models
