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
//
// Sampling (TabDdpm::Chain) keeps each row as its numericals plus one
// category code per block, never as a one-hot row: the first Linear becomes
// a gather-add of one weight row per block over a per-step bias that holds
// the time embedding's contribution, and the posterior reads the code.

#include <cstdint>
#include <span>

#include "models/generator.hpp"
#include "nn/layers.hpp"
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

/// The cosine ᾱ schedule (Nichol & Dhariwal) converted to per-step α/β —
/// a pure function of the number of timesteps T.
struct DdpmSchedule {
  std::vector<double> alpha_bar;  ///< T + 1 entries; alpha_bar[0] = 1
  std::vector<double> alphas;     ///< alphas[t - 1] = α_t, t = 1..T
  std::vector<double> betas;      ///< betas[t - 1] = β_t = 1 − α_t

  [[nodiscard]] static DdpmSchedule cosine(std::size_t timesteps);
};

/// The first layer's per-step bias: out = b + Σ_k temb[k]·W[in_dim − |temb|
/// + k], the time embedding's share of Linear::infer, once per step.
void ddpm_step_bias(const nn::Linear& first, std::span<const float> temb,
                    float* out);

/// The first layer on one coded row: out = step_bias + Σ_j num[j]·W[j] +
/// Σ_b W[blocks[b].offset + codes[b]] — Linear::infer on the explicit
/// [num | one-hots | temb] row without multiplying its zeros. `out` holds
/// first.out_dim() floats.
void ddpm_first_layer(const nn::Linear& first, const float* step_bias,
                      std::span<const float> num,
                      std::span<const std::uint32_t> codes,
                      std::span<const preprocess::CategoricalBlock> blocks,
                      float* out);

/// One block's multinomial posterior in f32, unnormalised: post[j] =
/// (α_t·[j = cur] + (1 − α_t)/K) · (ᾱ_{t−1}·x̂0[j] + (1 − ᾱ_{t−1})/K) with
/// x̂0 = softmax(logits). `logits` (K floats) is overwritten with x̂0;
/// returns Σ post, or NaN (post unset) when a logit is not finite.
float ddpm_block_posterior(float* logits, std::size_t k, std::uint32_t cur,
                           float alpha_t, float alpha_bar_prev, float* post);

/// Draw the next code from posterior weights with one rng.uniform(). A
/// total that is not finite and > 0 keeps `cur` and draws nothing.
std::uint32_t ddpm_draw_code(std::span<const float> post, float total,
                             std::uint32_t cur, util::Rng& rng);

class TabDdpm final : public TabularGenerator {
 public:
  class Chain;

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
    return schedule_.alpha_bar;
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
  DdpmSchedule schedule_;
  // Training state retained for warm_fit (absent after a state-less load).
  std::unique_ptr<nn::AdamW> opt_;
  std::size_t opt_steps_ = 0;
  float last_epoch_loss_ = 0.0f;
};

/// The reverse chain of `rows` rows, one diffusion step split into its two
/// stages so each can be timed. sample_chunk() runs, for t = T..1,
/// forward(t) then posterior(t, rng), and decodes once at the end. A chain
/// only reads its model, so chains on one model may run concurrently; it
/// must not outlive the model.
class TabDdpm::Chain {
 public:
  /// x_T: per row, numericals ~ N(0, 1) then one uniform code per block,
  /// drawn from `rng`.
  Chain(const TabDdpm& model, std::size_t rows, util::Rng& rng);

  /// The denoiser on x_t: the gather-add first layer, then Mlp::infer from
  /// layer 1. Leaves the [ε̂ | x̂0 logits] prediction for posterior().
  void forward(std::size_t t);
  /// x_{t−1} from x_t and the last forward(t): per row, the Gaussian
  /// ancestral step on the numericals, then one posterior draw per block.
  void posterior(std::size_t t, util::Rng& rng);
  /// The current state as a table (codes written as one-hots, then
  /// MixedEncoder::decode).
  [[nodiscard]] tabular::Table decode() const;

 private:
  const TabDdpm& model_;
  const nn::Linear& first_;
  std::size_t rows_;
  std::vector<float> num_;            // rows × numericals
  std::vector<std::uint32_t> codes_;  // rows × blocks
  std::vector<float> temb_;
  std::vector<float> step_bias_;
  linalg::Matrix hidden_;             // the first layer's output
  std::vector<linalg::Matrix> scratch_;
  const linalg::Matrix* pred_ = nullptr;
  std::vector<float> logits_;
  std::vector<float> post_;
};

}  // namespace surro::models
