#pragma once
// Sequential MLP container: owns a layer stack and the inter-layer
// activation/gradient buffers, so forward/backward are allocation-free in
// steady state. This is the backbone of all three neural generative models
// (TVAE encoder/decoder, GAN generator/discriminator, TabDDPM denoiser).

#include <memory>
#include <vector>

#include "nn/layers.hpp"

namespace surro::nn {

class Mlp {
 public:
  Mlp() = default;

  /// Takes ownership; layers execute in push order.
  void push(std::unique_ptr<Layer> layer);

  /// Convenience builders.
  Mlp& linear(std::size_t in_dim, std::size_t out_dim, util::Rng& rng,
              bool kaiming = true);
  Mlp& activation(Activation act, float slope = 0.2f);
  Mlp& dropout(float p, util::Rng& rng);
  Mlp& layer_norm(std::size_t dim);

  [[nodiscard]] std::size_t num_layers() const noexcept {
    return layers_.size();
  }

  [[nodiscard]] const Layer& layer(std::size_t i) const {
    return *layers_.at(i);
  }

  /// Forward through every layer; the returned reference stays valid until
  /// the next forward call. forward(in, false) is infer() into this
  /// network's own buffers: it caches nothing, so backward() needs a
  /// preceding forward(in, true).
  const linalg::Matrix& forward(const linalg::Matrix& in, bool train);

  /// Inference into caller-owned `scratch` (one activation buffer per
  /// layer, resized as needed). Reads the network only, so threads that
  /// each own their scratch can share one Mlp. The returned reference
  /// points into `scratch`. `first` > 0 starts the pass at that layer, with
  /// `in` standing for the output of layer first - 1 (a caller that
  /// computes the first layers itself).
  const linalg::Matrix& infer(const linalg::Matrix& in,
                              std::vector<linalg::Matrix>& scratch,
                              std::size_t first = 0) const;

  /// Backward from dL/d(output); returns dL/d(input) (valid until next call).
  /// Throws std::logic_error unless the last forward was a training one.
  const linalg::Matrix& backward(const linalg::Matrix& grad_out);

  /// All trainable parameters, in layer order.
  [[nodiscard]] std::vector<Param*> params();

  void zero_grad();

  /// Total scalar parameter count (diagnostics).
  [[nodiscard]] std::size_t num_parameters();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<linalg::Matrix> acts_;   // acts_[i] = output of layer i
  std::vector<linalg::Matrix> grads_;  // grads_[i] = dL/d(input of layer i)
  bool backward_ready_ = false;        // last forward cached for backward
};

/// Standard body builder: [Linear -> act] * depth with given hidden sizes,
/// then a final Linear to out_dim (no output activation).
[[nodiscard]] Mlp make_mlp(std::size_t in_dim,
                           const std::vector<std::size_t>& hidden,
                           std::size_t out_dim, Activation act,
                           util::Rng& rng, float dropout_p = 0.0f);

/// Binary persistence of the full layer stack (architecture + parameters).
void save_mlp(std::ostream& os, const Mlp& mlp);
[[nodiscard]] Mlp load_mlp(std::istream& is);

}  // namespace surro::nn
