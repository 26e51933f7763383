#pragma once
// SMOTE (Chawla et al., 2002) as a tabular generator — the paper's only
// non-learning baseline. A synthetic row interpolates a random training row
// toward one of its k nearest neighbours:
//   numericals:  x = x_i + u · (x_j − x_i),  u ~ U(0,1)
//   categoricals: copied from x_i with prob (1−u), else from x_j
// (the SMOTE-NC treatment of nominal features). Neighbourhoods are found in
// the Gaussian-quantile-transformed numerical space so distances are
// comparable across features.
//
// Because samples live on segments between real records, SMOTE nearly
// memorizes the training set: excellent marginals/correlations but a DCR
// close to zero — exactly the privacy trade-off Table I reports.

#include "knn/kdtree.hpp"
#include "models/generator.hpp"
#include "preprocess/mixed_encoder.hpp"

namespace surro::models {

struct SmoteConfig {
  std::size_t k_neighbors = 5;  // the classic SMOTE k
  std::size_t num_quantiles = 1000;
};

class Smote final : public TabularGenerator {
 public:
  explicit Smote(SmoteConfig cfg = {});

  using TabularGenerator::fit;
  void fit(const tabular::Table& train, const FitOptions& opts) override;
  /// Streaming append: delta rows are transformed through the *frozen*
  /// quantile transforms and joined to the neighbour index as a brute-force
  /// tail; the k-d tree is only rebuilt once the tail outgrows the indexed
  /// base (amortized O(delta) per refresh instead of an O(n log n) refit).
  /// The neighbour table is dropped, not rebuilt (a rebuild would query
  /// every row against the brute-force tail), so sampling falls back to a
  /// per-row neighbors_of() until the next load().
  using TabularGenerator::warm_fit;
  void warm_fit(const tabular::Table& delta,
                const RefreshOptions& opts) override;
  [[nodiscard]] bool warm_startable() const noexcept override {
    return fitted_;
  }
  [[nodiscard]] bool fitted() const noexcept override { return fitted_; }
  [[nodiscard]] tabular::Table sample_chunk(std::size_t n,
                                            std::uint64_t seed) override;
  [[nodiscard]] std::string key() const override { return "smote"; }
  [[nodiscard]] std::string name() const override { return "SMOTE"; }

  void save(std::ostream& os) const override;
  void load(std::istream& is) override;
  [[nodiscard]] std::unique_ptr<TabularGenerator> clone() const override;

  /// sample_chunk only reads the fitted state (the neighbour table, or k-d
  /// tree queries, are const), so chunks can run concurrently on one
  /// instance.
  [[nodiscard]] bool concurrent_sampling() const noexcept override {
    return true;
  }

  [[nodiscard]] const SmoteConfig& config() const noexcept { return cfg_; }

 private:
  /// Exact k-NN of row `base` over all rows: k-d tree over the indexed
  /// prefix [0, indexed_rows_) merged with a linear scan of the appended
  /// tail [indexed_rows_, n). Ascending by (distance, index).
  [[nodiscard]] std::vector<knn::Neighbor> neighbors_of(
      std::size_t base) const;
  /// Fill neighbor_table_ with neighbors_of(b) for every row b, so
  /// sampling draws from a row of the table instead of a k-NN query.
  void build_neighbor_table();

  SmoteConfig cfg_;
  bool fitted_ = false;
  preprocess::MixedEncoder encoder_;
  linalg::Matrix numerical_;   // (n, m) transformed numerical slice
  std::vector<std::vector<std::int32_t>> cat_codes_;  // per block, per row
  std::unique_ptr<knn::KdTree> tree_;  // covers rows [0, indexed_rows_)
  std::size_t indexed_rows_ = 0;
  /// Row b's neighbours in neighbors_of(b) order, neighbor_width_ =
  /// min(k, n − 1) per row. Empty after warm_fit (sampling then queries
  /// neighbors_of per row); fit() and load() build it. Not archived.
  std::vector<std::uint32_t> neighbor_table_;
  std::size_t neighbor_width_ = 0;
};

}  // namespace surro::models
