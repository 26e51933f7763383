#include "nn/mlp.hpp"

#include <cassert>
#include <stdexcept>

#include "util/serialize.hpp"

namespace surro::nn {

void Mlp::push(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  acts_.emplace_back();
  grads_.emplace_back();
}

Mlp& Mlp::linear(std::size_t in_dim, std::size_t out_dim, util::Rng& rng,
                 bool kaiming) {
  push(std::make_unique<Linear>(in_dim, out_dim, rng, kaiming));
  return *this;
}
Mlp& Mlp::activation(Activation act, float slope) {
  push(std::make_unique<ActivationLayer>(act, slope));
  return *this;
}
Mlp& Mlp::dropout(float p, util::Rng& rng) {
  push(std::make_unique<Dropout>(p, rng));
  return *this;
}
Mlp& Mlp::layer_norm(std::size_t dim) {
  push(std::make_unique<LayerNorm>(dim));
  return *this;
}

const linalg::Matrix& Mlp::forward(const linalg::Matrix& in, bool train) {
  backward_ready_ = false;
  if (!train) return infer(in, acts_);
  if (layers_.empty()) throw std::logic_error("mlp: empty network");
  const linalg::Matrix* cur = &in;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->forward(*cur, acts_[i], train);
    cur = &acts_[i];
  }
  backward_ready_ = true;
  return acts_.back();
}

const linalg::Matrix& Mlp::infer(const linalg::Matrix& in,
                                 std::vector<linalg::Matrix>& scratch,
                                 std::size_t first) const {
  if (layers_.empty()) throw std::logic_error("mlp: empty network");
  if (first >= layers_.size()) {
    throw std::logic_error("mlp: infer starts past the last layer");
  }
  scratch.resize(layers_.size());
  const linalg::Matrix* cur = &in;
  for (std::size_t i = first; i < layers_.size(); ++i) {
    layers_[i]->infer(*cur, scratch[i]);
    cur = &scratch[i];
  }
  return scratch.back();
}

const linalg::Matrix& Mlp::backward(const linalg::Matrix& grad_out) {
  if (layers_.empty()) throw std::logic_error("mlp: empty network");
  if (!backward_ready_) {
    throw std::logic_error("mlp: backward without a training forward");
  }
  const linalg::Matrix* cur = &grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    layers_[i]->backward(*cur, grads_[i]);
    cur = &grads_[i];
  }
  return grads_.front();
}

std::vector<Param*> Mlp::params() {
  std::vector<Param*> out;
  for (auto& l : layers_) {
    for (Param* p : l->params()) out.push_back(p);
  }
  return out;
}

void Mlp::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::size_t Mlp::num_parameters() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->value.size();
  return n;
}

Mlp make_mlp(std::size_t in_dim, const std::vector<std::size_t>& hidden,
             std::size_t out_dim, Activation act, util::Rng& rng,
             float dropout_p) {
  Mlp mlp;
  std::size_t prev = in_dim;
  const bool kaiming =
      act == Activation::kReLU || act == Activation::kLeakyReLU ||
      act == Activation::kSiLU;
  for (const std::size_t h : hidden) {
    mlp.linear(prev, h, rng, kaiming);
    mlp.activation(act);
    if (dropout_p > 0.0f) mlp.dropout(dropout_p, rng);
    prev = h;
  }
  mlp.linear(prev, out_dim, rng, kaiming);
  return mlp;
}

void save_mlp(std::ostream& os, const Mlp& mlp) {
  util::io::write_tag(os, "MLP0");
  util::io::write_u64(os, mlp.num_layers());
  for (std::size_t i = 0; i < mlp.num_layers(); ++i) {
    mlp.layer(i).save(os);
  }
}

Mlp load_mlp(std::istream& is) {
  util::io::expect_tag(is, "MLP0");
  const auto n = static_cast<std::size_t>(util::io::read_u64(is));
  Mlp mlp;
  for (std::size_t i = 0; i < n; ++i) {
    mlp.push(load_layer(is));
  }
  return mlp;
}

}  // namespace surro::nn
