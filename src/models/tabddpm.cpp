#include "models/tabddpm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "linalg/simd.hpp"
#include "nn/losses.hpp"
#include "util/logging.hpp"
#include "util/mathx.hpp"
#include "util/serialize.hpp"

namespace surro::models {

TabDdpm::TabDdpm(TabDdpmConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.timesteps < 2) {
    throw std::invalid_argument("tabddpm: need at least 2 timesteps");
  }
}

void TabDdpm::embed_time(std::size_t t, float* out) const {
  // Transformer-style sinusoidal embedding of the (normalized) timestep.
  const std::size_t half = cfg_.time_embed_dim / 2;
  const double pos = static_cast<double>(t);
  for (std::size_t k = 0; k < half; ++k) {
    const double freq =
        std::exp(-std::log(10000.0) * static_cast<double>(k) /
                 static_cast<double>(std::max<std::size_t>(half - 1, 1)));
    out[k] = static_cast<float>(std::sin(pos * freq));
    out[half + k] = static_cast<float>(std::cos(pos * freq));
  }
  if (cfg_.time_embed_dim % 2 != 0) out[2 * half] = 0.0f;
}

DdpmSchedule DdpmSchedule::cosine(std::size_t timesteps) {
  const std::size_t T = timesteps;
  const auto f = [](double u) {
    const double s = 0.008;
    const double v = std::cos((u + s) / (1.0 + s) * util::kPi / 2.0);
    return v * v;
  };
  DdpmSchedule out;
  out.alpha_bar.resize(T + 1);
  for (std::size_t t = 0; t <= T; ++t) {
    out.alpha_bar[t] = f(static_cast<double>(t) / static_cast<double>(T)) /
                       f(0.0);
  }
  out.betas.resize(T);
  out.alphas.resize(T);
  for (std::size_t t = 0; t < T; ++t) {
    const double beta = std::clamp(
        1.0 - out.alpha_bar[t + 1] / out.alpha_bar[t], 1e-5, 0.999);
    out.betas[t] = beta;
    out.alphas[t] = 1.0 - beta;
  }
  return out;
}

void ddpm_step_bias(const nn::Linear& first, std::span<const float> temb,
                    float* out) {
  const auto& kern = linalg::simd::kernels();
  const std::size_t h = first.out_dim();
  const float* w = first.weight().value.data() +
                   (first.in_dim() - temb.size()) * h;
  std::copy_n(first.bias().value.data(), h, out);
  for (std::size_t k = 0; k < temb.size(); ++k) {
    kern.axpy_f32(temb[k], w + k * h, out, h);
  }
}

void ddpm_first_layer(const nn::Linear& first, const float* step_bias,
                      std::span<const float> num,
                      std::span<const std::uint32_t> codes,
                      std::span<const preprocess::CategoricalBlock> blocks,
                      float* out) {
  const auto& kern = linalg::simd::kernels();
  const std::size_t h = first.out_dim();
  const float* w = first.weight().value.data();
  std::copy_n(step_bias, h, out);
  for (std::size_t j = 0; j < num.size(); ++j) {
    kern.axpy_f32(num[j], w + j * h, out, h);
  }
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    kern.add_f32(out, w + (blocks[b].offset + codes[b]) * h, out, h);
  }
}

float ddpm_block_posterior(float* logits, std::size_t k, std::uint32_t cur,
                           float alpha_t, float alpha_bar_prev, float* post) {
  // x − x is 0 for every finite x and NaN otherwise. The check must come
  // first: the vector exp clamps a NaN input to a finite value, so the
  // softmax alone would hide it.
  float finite = 0.0f;
  for (std::size_t j = 0; j < k; ++j) finite += logits[j] - logits[j];
  if (finite != 0.0f) return std::numeric_limits<float>::quiet_NaN();
  linalg::simd::kernels().softmax_row_f32(logits, k);
  const float unif = 1.0f / static_cast<float>(k);
  const float like_other = (1.0f - alpha_t) * unif;
  const float prior_unif = (1.0f - alpha_bar_prev) * unif;
  for (std::size_t j = 0; j < k; ++j) {
    post[j] = like_other * (alpha_bar_prev * logits[j] + prior_unif);
  }
  // The current category's likelihood adds α_t to the uniform share.
  post[cur] += alpha_t * (alpha_bar_prev * logits[cur] + prior_unif);
  float total = 0.0f;
  for (std::size_t j = 0; j < k; ++j) total += post[j];
  return total;
}

std::uint32_t ddpm_draw_code(std::span<const float> post, float total,
                             std::uint32_t cur, util::Rng& rng) {
  if (!(total > 0.0f) || !std::isfinite(total)) return cur;
  double r = rng.uniform() * static_cast<double>(total);
  // Rounding can leave r >= 0 past the last weight: fall back to the last
  // category with positive weight, never to one the posterior rules out.
  std::uint32_t last = cur;
  for (std::size_t j = 0; j < post.size(); ++j) {
    if (!(post[j] > 0.0f)) continue;
    last = static_cast<std::uint32_t>(j);
    r -= static_cast<double>(post[j]);
    if (r < 0.0) break;
  }
  return last;
}

void TabDdpm::fit(const tabular::Table& train, const FitOptions& opts) {
  if (fitted_) throw std::logic_error("tabddpm: fit called twice");
  encoder_.fit(train, cfg_.num_quantiles);
  const std::size_t width = encoder_.encoded_width();
  const std::size_t in_dim = width + cfg_.time_embed_dim;

  schedule_ = DdpmSchedule::cosine(cfg_.timesteps);

  net_ = nn::make_mlp(in_dim, cfg_.hidden, width, nn::Activation::kSiLU,
                      rng_);

  const linalg::Matrix data = encoder_.encode(train);
  const std::size_t n = data.rows();
  const std::size_t batch = std::min<std::size_t>(cfg_.budget.batch_size, n);
  const std::size_t steps_per_epoch = (n + batch - 1) / batch;

  opt_ = std::make_unique<nn::AdamW>(cfg_.budget.learning_rate,
                                     /*weight_decay=*/1e-4f);
  opt_->add_params(net_.params());
  opt_steps_ = 0;
  const nn::CosineSchedule schedule(cfg_.budget.learning_rate,
                                    cfg_.budget.epochs * steps_per_epoch);
  train_epochs(data, cfg_.budget.epochs, schedule, opts);
  fitted_ = true;
}

void TabDdpm::warm_fit(const tabular::Table& delta,
                       const RefreshOptions& opts) {
  if (!fitted_) throw std::logic_error("tabddpm: warm_fit before fit");
  if (!warm_startable()) {
    throw std::logic_error("tabddpm: training state not retained");
  }
  if (delta.num_rows() == 0) return;
  const linalg::Matrix data = encoder_.encode(delta);
  const nn::ConstantSchedule schedule(cfg_.budget.learning_rate *
                                      opts.learning_rate_scale);
  train_epochs(data, opts.resolve_epochs(cfg_.budget.epochs), schedule,
               opts.fit);
}

void TabDdpm::train_epochs(const linalg::Matrix& data, std::size_t epochs,
                           const nn::LrSchedule& schedule,
                           const FitOptions& opts) {
  const std::size_t width = encoder_.encoded_width();
  const std::size_t m = encoder_.num_numerical();
  const std::size_t in_dim = width + cfg_.time_embed_dim;
  const std::size_t T = cfg_.timesteps;
  const std::size_t n = data.rows();
  const std::size_t batch = std::min<std::size_t>(cfg_.budget.batch_size, n);

  linalg::Matrix x0;
  linalg::Matrix input;
  linalg::Matrix eps;
  linalg::Matrix grad;
  std::vector<std::size_t> ts(batch);

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    if (opts.cancelled()) throw FitCancelled(name());
    const auto perm = rng_.permutation(n);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t off = 0; off < n; off += batch) {
      const std::size_t cur = std::min(batch, n - off);
      const std::span<const std::size_t> idx(perm.data() + off, cur);
      linalg::gather_rows(data, idx, x0);

      input.resize(cur, in_dim);
      input.zero();
      eps.resize(cur, m);
      for (std::size_t r = 0; r < cur; ++r) {
        const std::size_t t =
            static_cast<std::size_t>(rng_.uniform_index(T)) + 1;  // 1..T
        ts[r] = t;
        const double ab = schedule_.alpha_bar[t];
        const double sab = std::sqrt(ab);
        const double somb = std::sqrt(1.0 - ab);
        // Numerical forward: x_t = √ᾱ·x0 + √(1-ᾱ)·ε.
        for (std::size_t j = 0; j < m; ++j) {
          const float e = static_cast<float>(rng_.normal());
          eps(r, j) = e;
          input(r, j) = static_cast<float>(sab) * x0(r, j) +
                        static_cast<float>(somb) * e;
        }
        // Categorical forward: keep the one-hot with prob ᾱ, else uniform.
        for (const auto& b : encoder_.blocks()) {
          std::size_t cat = 0;
          for (std::size_t j = 0; j < b.cardinality; ++j) {
            if (x0(r, b.offset + j) > 0.5f) {
              cat = j;
              break;
            }
          }
          if (!rng_.bernoulli(ab)) {
            cat = static_cast<std::size_t>(
                rng_.uniform_index(b.cardinality));
          }
          input(r, b.offset + cat) = 1.0f;
        }
        embed_time(t, input.data() + r * in_dim + width);
      }

      const linalg::Matrix& out = net_.forward(input, /*train=*/true);

      // Loss: MSE(ε̂, ε) on the numerical slice + CE(x̂0, x0) per block.
      grad.resize(cur, width);
      grad.zero();
      double loss = 0.0;
      const float inv = 1.0f / static_cast<float>(cur * std::max(m, std::size_t{1}));
      for (std::size_t r = 0; r < cur; ++r) {
        for (std::size_t j = 0; j < m; ++j) {
          const float d = out(r, j) - eps(r, j);
          loss += static_cast<double>(d) * d / (cur * std::max(m, std::size_t{1}));
          grad(r, j) = 2.0f * d * inv;
        }
      }
      // Blockwise CE on the categorical slice.
      {
        linalg::Matrix ce_grad;
        const float ce = nn::blockwise_softmax_ce(
            out, x0, encoder_.blocks(), m, ce_grad);
        loss += cfg_.categorical_loss_weight * static_cast<double>(ce);
        for (std::size_t i = 0; i < grad.size(); ++i) {
          grad.flat()[i] +=
              cfg_.categorical_loss_weight * ce_grad.flat()[i];
        }
      }

      net_.backward(grad);
      opt_->clip_grad_norm(cfg_.grad_clip);
      opt_->set_learning_rate(schedule.at(opt_steps_++));
      opt_->step();
      epoch_loss += loss;
      ++batches;
    }
    last_epoch_loss_ =
        static_cast<float>(epoch_loss / static_cast<double>(batches));
    if (cfg_.budget.log_every_epochs > 0 &&
        (epoch + 1) % cfg_.budget.log_every_epochs == 0) {
      util::log_info("tabddpm: epoch %zu/%zu loss %.4f", epoch + 1, epochs,
                     static_cast<double>(last_epoch_loss_));
    }
    if (opts.on_progress) {
      opts.on_progress({epoch + 1, epochs, last_epoch_loss_});
    }
  }
}

tabular::Table TabDdpm::sample_chunk(std::size_t n, std::uint64_t seed) {
  if (!fitted_) throw std::logic_error("tabddpm: sample before fit");
  util::Rng rng(seed);
  constexpr std::size_t kChainRows = 1024;
  tabular::Table out_table = encoder_.make_empty_table();
  for (std::size_t off = 0; off < n; off += kChainRows) {
    Chain chain(*this, std::min(kChainRows, n - off), rng);
    for (std::size_t t = cfg_.timesteps; t >= 1; --t) {
      chain.forward(t);
      chain.posterior(t, rng);
    }
    out_table.append_table(chain.decode());
  }
  return out_table;
}

TabDdpm::Chain::Chain(const TabDdpm& model, std::size_t rows,
                      util::Rng& rng)
    : model_(model),
      first_(dynamic_cast<const nn::Linear&>(model.net_.layer(0))),
      rows_(rows) {
  const auto& blocks = model_.encoder_.blocks();
  const std::size_t m = model_.encoder_.num_numerical();
  num_.resize(rows * m);
  codes_.resize(rows * blocks.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < m; ++j) {
      num_[r * m + j] = static_cast<float>(rng.normal());
    }
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      codes_[r * blocks.size() + b] = static_cast<std::uint32_t>(
          rng.uniform_index(blocks[b].cardinality));
    }
  }
  std::size_t widest = 1;
  for (const auto& b : blocks) widest = std::max(widest, b.cardinality);
  temb_.resize(model_.cfg_.time_embed_dim);
  step_bias_.resize(first_.out_dim());
  hidden_.resize(rows, first_.out_dim());
  logits_.resize(widest);
  post_.resize(widest);
}

void TabDdpm::Chain::forward(std::size_t t) {
  const auto& blocks = model_.encoder_.blocks();
  const std::size_t m = model_.encoder_.num_numerical();
  const std::size_t h = first_.out_dim();
  // The time embedding is the same for every row of a step: fold it, with
  // the bias, into one per-step bias.
  model_.embed_time(t, temb_.data());
  ddpm_step_bias(first_, temb_, step_bias_.data());
  for (std::size_t r = 0; r < rows_; ++r) {
    ddpm_first_layer(first_, step_bias_.data(), {num_.data() + r * m, m},
                     {codes_.data() + r * blocks.size(), blocks.size()},
                     blocks, hidden_.data() + r * h);
  }
  pred_ = &model_.net_.infer(hidden_, scratch_, /*first=*/1);
}

void TabDdpm::Chain::posterior(std::size_t t, util::Rng& rng) {
  const auto& blocks = model_.encoder_.blocks();
  const std::size_t m = model_.encoder_.num_numerical();
  const std::size_t width = model_.encoder_.encoded_width();
  const DdpmSchedule& s = model_.schedule_;
  const double ab_t = s.alpha_bar[t];
  const double ab_prev = s.alpha_bar[t - 1];
  const double alpha_t = s.alphas[t - 1];
  const double beta_t = s.betas[t - 1];
  const double inv_sqrt_alpha = 1.0 / std::sqrt(alpha_t);
  const double eps_coef = beta_t / std::sqrt(1.0 - ab_t);
  const double sigma = std::sqrt(beta_t * (1.0 - ab_prev) / (1.0 - ab_t));
  const auto alpha_f = static_cast<float>(alpha_t);
  const auto ab_prev_f = static_cast<float>(ab_prev);

  for (std::size_t r = 0; r < rows_; ++r) {
    const float* pred = pred_->data() + r * width;
    // Gaussian ancestral step on the numerical slice.
    float* x = num_.data() + r * m;
    for (std::size_t j = 0; j < m; ++j) {
      const double mean =
          inv_sqrt_alpha * (static_cast<double>(x[j]) -
                            eps_coef * static_cast<double>(pred[j]));
      const double noise = t > 1 ? rng.normal() * sigma : 0.0;
      x[j] = static_cast<float>(mean + noise);
    }
    // Multinomial posterior step per categorical block.
    std::uint32_t* codes = codes_.data() + r * blocks.size();
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const std::size_t k = blocks[b].cardinality;
      std::copy_n(pred + blocks[b].offset, k, logits_.data());
      const float total = ddpm_block_posterior(
          logits_.data(), k, codes[b], alpha_f, ab_prev_f, post_.data());
      codes[b] = ddpm_draw_code({post_.data(), k}, total, codes[b], rng);
    }
  }
}

tabular::Table TabDdpm::Chain::decode() const {
  const auto& blocks = model_.encoder_.blocks();
  const std::size_t m = model_.encoder_.num_numerical();
  // Numericals are x_0 in quantile space; the codes become hard one-hots,
  // which the encoder's argmax decodes back to the codes.
  linalg::Matrix x(rows_, model_.encoder_.encoded_width());
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy_n(num_.data() + r * m, m, x.row(r).data());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      x(r, blocks[b].offset + codes_[r * blocks.size() + b]) = 1.0f;
    }
  }
  return model_.encoder_.decode(x, nullptr);
}

std::vector<double> TabDdpm::anomaly_scores(const tabular::Table& rows,
                                            std::size_t probes,
                                            std::size_t draws,
                                            std::uint64_t seed) {
  if (!fitted_) throw std::logic_error("tabddpm: anomaly_scores before fit");
  if (probes == 0 || draws == 0) {
    throw std::invalid_argument("tabddpm: probes/draws must be positive");
  }
  util::Rng rng(seed);
  const linalg::Matrix x0 = encoder_.encode(rows);
  const std::size_t n = x0.rows();
  const std::size_t width = encoder_.encoded_width();
  const std::size_t m = encoder_.num_numerical();
  const std::size_t T = cfg_.timesteps;

  const std::size_t in_dim = width + cfg_.time_embed_dim;

  std::vector<double> scores(n, 0.0);
  linalg::Matrix input(n, in_dim);
  linalg::Matrix eps(n, m);
  std::vector<float> temb(cfg_.time_embed_dim);

  // Probe at evenly spaced mid-range timesteps: very small t is trivial to
  // denoise, very large t destroys all signal; the informative band is the
  // middle of the chain.
  for (std::size_t p = 0; p < probes; ++p) {
    const std::size_t t =
        1 + (T - 1) * (p + 1) / (probes + 1);
    const double ab = schedule_.alpha_bar[t];
    const double sab = std::sqrt(ab);
    const double somb = std::sqrt(1.0 - ab);
    embed_time(t, temb.data());
    for (std::size_t d = 0; d < draws; ++d) {
      input.zero();
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t j = 0; j < m; ++j) {
          const float e = static_cast<float>(rng.normal());
          eps(r, j) = e;
          input(r, j) = static_cast<float>(sab) * x0(r, j) +
                        static_cast<float>(somb) * e;
        }
        for (const auto& b : encoder_.blocks()) {
          std::size_t cat = 0;
          for (std::size_t j = 0; j < b.cardinality; ++j) {
            if (x0(r, b.offset + j) > 0.5f) {
              cat = j;
              break;
            }
          }
          if (!rng.bernoulli(ab)) {
            cat = static_cast<std::size_t>(
                rng.uniform_index(b.cardinality));
          }
          input(r, b.offset + cat) = 1.0f;
        }
        std::copy(temb.begin(), temb.end(), input.data() + r * in_dim + width);
      }
      const linalg::Matrix& pred = net_.forward(input, /*train=*/false);
      for (std::size_t r = 0; r < n; ++r) {
        double err = 0.0;
        for (std::size_t j = 0; j < m; ++j) {
          const double d_eps =
              static_cast<double>(pred(r, j)) - eps(r, j);
          err += d_eps * d_eps;
        }
        if (m > 0) err /= static_cast<double>(m);
        // Cross-entropy of the *true* category under predicted x̂0 logits.
        for (const auto& b : encoder_.blocks()) {
          std::size_t true_cat = 0;
          float peak = pred(r, b.offset);
          for (std::size_t j = 0; j < b.cardinality; ++j) {
            if (x0(r, b.offset + j) > 0.5f) true_cat = j;
            peak = std::max(peak, pred(r, b.offset + j));
          }
          double denom = 0.0;
          for (std::size_t j = 0; j < b.cardinality; ++j) {
            denom += std::exp(
                static_cast<double>(pred(r, b.offset + j) - peak));
          }
          const double logp =
              static_cast<double>(pred(r, b.offset + true_cat) - peak) -
              std::log(denom);
          err -= logp / static_cast<double>(encoder_.blocks().size());
        }
        scores[r] += err;
      }
    }
  }
  const double norm = static_cast<double>(probes * draws);
  for (double& s : scores) s /= norm;
  return scores;
}

void TabDdpm::save(std::ostream& os) const { save_impl(os, true); }

void TabDdpm::save_impl(std::ostream& os, bool include_train_state) const {
  if (!fitted_) throw std::logic_error("tabddpm: save before fit");
  util::io::write_tag(os, "DDPM");
  util::io::write_u32(os, 2);  // payload version
  util::io::write_u64(os, cfg_.timesteps);
  util::io::write_u64(os, cfg_.time_embed_dim);
  encoder_.save(os);
  nn::save_mlp(os, net_);
  // v2: optional training state so a reloaded model can warm_fit.
  const bool train_state = include_train_state && opt_ != nullptr;
  util::io::write_u32(os, train_state ? 1 : 0);
  if (train_state) {
    // Fit-time budget: warm_fit derives its epoch count and LR from it.
    util::io::write_f32(os, cfg_.budget.learning_rate);
    util::io::write_u64(os, cfg_.budget.epochs);
    util::io::write_u64(os, cfg_.budget.batch_size);
    opt_->save(os);
    util::io::write_u64(os, opt_steps_);
    rng_.save(os);
  }
}

void TabDdpm::load(std::istream& is) {
  if (fitted_) throw std::logic_error("tabddpm: load into fitted model");
  util::io::expect_tag(is, "DDPM");
  const std::uint32_t version = util::io::read_u32(is);
  if (version != 1 && version != 2) {
    throw std::runtime_error("tabddpm: unsupported payload");
  }
  cfg_.timesteps = static_cast<std::size_t>(util::io::read_u64(is));
  cfg_.time_embed_dim = static_cast<std::size_t>(util::io::read_u64(is));
  encoder_.load(is);
  net_ = nn::load_mlp(is);
  if (version >= 2 && util::io::read_u32(is) != 0) {
    cfg_.budget.learning_rate = util::io::read_f32(is);
    cfg_.budget.epochs = static_cast<std::size_t>(util::io::read_u64(is));
    cfg_.budget.batch_size = static_cast<std::size_t>(util::io::read_u64(is));
    opt_ = std::make_unique<nn::AdamW>(cfg_.budget.learning_rate,
                                       /*weight_decay=*/1e-4f);
    opt_->add_params(net_.params());
    opt_->load(is);
    opt_steps_ = static_cast<std::size_t>(util::io::read_u64(is));
    rng_.load(is);
  }
  schedule_ = DdpmSchedule::cosine(cfg_.timesteps);
  fitted_ = true;
}

std::unique_ptr<TabularGenerator> TabDdpm::clone() const {
  std::stringstream buffer;
  save_impl(buffer, /*include_train_state=*/false);
  auto copy = std::make_unique<TabDdpm>(cfg_);
  copy->load(buffer);
  return copy;
}

namespace {
const RegisterGenerator kRegisterTabDdpm{{
    "tabddpm",
    "TabDDPM",
    "Gaussian + multinomial denoising diffusion (Kotelnikov et al., 2023) "
    "— the paper's recommended surrogate",
    [](const TrainBudget& budget, std::uint64_t seed) {
      TabDdpmConfig cfg;
      cfg.budget = budget;
      // The diffusion model needs more gradient signal per wall-clock than
      // the VAE/GAN at our reduced epoch counts: the paper's 2e-4 over
      // 30k epochs scales to ~1.5e-3 at tens of epochs, and doubling the
      // epoch count keeps its optimization budget comparable to the
      // adversarial pair (which takes 2 passes per step).
      cfg.budget.learning_rate = budget.learning_rate * 7.5f;
      cfg.budget.epochs = budget.epochs * 2;
      cfg.timesteps = 50;
      cfg.seed = seed;
      return std::make_unique<TabDdpm>(cfg);
    },
}};
}  // namespace

}  // namespace surro::models
