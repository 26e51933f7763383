#pragma once
// TabDDPM (Kotelnikov et al., 2023): denoising diffusion for mixed-type
// tabular data — the paper's recommended surrogate.
//
//   * Numerical features (quantile-normalized): Gaussian DDPM. Forward
//     q(x_t|x_0) = N(√ᾱ_t·x_0, (1−ᾱ_t)I); the MLP predicts the noise ε and
//     sampling runs the standard ancestral reverse chain.
//   * Categorical features: multinomial diffusion (Hoogeboom et al.).
//     Forward q(x_t|x_0) = Cat(ᾱ_t·onehot(x_0) + (1−ᾱ_t)/K); the MLP
//     predicts x̂_0 logits per block and sampling uses the posterior
//     q(x_{t-1}|x_t, x̂_0) ∝ (α_t·x_t + (1−α_t)/K) ⊙ (ᾱ_{t-1}·x̂_0 +
//     (1−ᾱ_{t-1})/K).
//
// One MLP denoiser consumes [x_t numericals | x_t one-hots | sinusoidal
// timestep embedding] and emits [ε̂ | x̂_0 logits]; losses are MSE on ε plus
// cross-entropy on x̂_0 (the simplified multinomial objective).

#include "models/generator.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/schedule.hpp"
#include "preprocess/mixed_encoder.hpp"

namespace surro::models {

struct TabDdpmConfig {
  std::size_t timesteps = 100;
  std::vector<std::size_t> hidden = {256, 256};
  std::size_t time_embed_dim = 32;
  /// Weight of the categorical CE term relative to the Gaussian MSE.
  float categorical_loss_weight = 1.0f;
  float grad_clip = 5.0f;
  std::size_t num_quantiles = 1000;
  TrainBudget budget;
  std::uint64_t seed = 3;
};

class TabDdpm final : public TabularGenerator {
 public:
  explicit TabDdpm(TabDdpmConfig cfg = {});

  using TabularGenerator::fit;
  void fit(const tabular::Table& train, const FitOptions& opts) override;
  using TabularGenerator::warm_fit;
  void warm_fit(const tabular::Table& delta,
                const RefreshOptions& opts) override;
  [[nodiscard]] bool warm_startable() const noexcept override {
    return fitted_ && opt_ != nullptr;
  }
  [[nodiscard]] bool fitted() const noexcept override { return fitted_; }
  [[nodiscard]] tabular::Table sample_chunk(std::size_t n,
                                            std::uint64_t seed) override;
  [[nodiscard]] std::string key() const override { return "tabddpm"; }
  [[nodiscard]] std::string name() const override { return "TabDDPM"; }

  void save(std::ostream& os) const override;
  void load(std::istream& is) override;
  [[nodiscard]] std::unique_ptr<TabularGenerator> clone() const override;
  /// sample_chunk() runs the denoiser through Mlp::infer with per-call
  /// scratch, so concurrent chunks share this instance.
  [[nodiscard]] bool concurrent_sampling() const noexcept override {
    return true;
  }

  [[nodiscard]] float last_epoch_loss() const noexcept {
    return last_epoch_loss_;
  }
  [[nodiscard]] const std::vector<double>& alpha_bar() const noexcept {
    return alpha_bar_;
  }

  /// Per-row denoising error — the diffusion anomaly score (Sec. VI: "this
  /// characteristic of diffusion models makes it a competent detector for
  /// anomalies"). Each row is noised at `probes` evenly spaced timesteps
  /// (with `draws` noise draws each); the score averages the ε-prediction
  /// MSE plus the categorical cross-entropy of the true categories. Rows
  /// far from the learned manifold denoise poorly and score high.
  [[nodiscard]] std::vector<double> anomaly_scores(
      const tabular::Table& rows, std::size_t probes = 4,
      std::size_t draws = 4, std::uint64_t seed = 97);

 private:
  /// Write the sinusoidal embedding of timestep t into
  /// out[0, time_embed_dim).
  void embed_time(std::size_t t, float* out) const;

  /// (Re)compute the cosine beta/alpha schedule from cfg_.timesteps — a
  /// pure function of the config, shared by fit() and load().
  void build_schedule();

  /// Run `epochs` denoising epochs over encoded rows, advancing the shared
  /// optimizer clock (opt_steps_). Shared by cold fit (cosine LR schedule)
  /// and warm refresh (flat reduced LR).
  void train_epochs(const linalg::Matrix& data, std::size_t epochs,
                    const nn::LrSchedule& schedule, const FitOptions& opts);
  /// save() with or without the training-only state (optimizer moments,
  /// RNG): clone() drops it — sampling replicas never train.
  void save_impl(std::ostream& os, bool include_train_state) const;

  TabDdpmConfig cfg_;
  bool fitted_ = false;
  preprocess::MixedEncoder encoder_;
  util::Rng rng_;
  nn::Mlp net_;
  std::vector<double> betas_;
  std::vector<double> alphas_;
  std::vector<double> alpha_bar_;
  // Training state retained for warm_fit (absent after a state-less load).
  std::unique_ptr<nn::AdamW> opt_;
  std::size_t opt_steps_ = 0;
  float last_epoch_loss_ = 0.0f;
};

}  // namespace surro::models
