#include "resipe/nn/model.hpp"
#include <cmath>

#include <sstream>

#include "resipe/common/error.hpp"

namespace resipe::nn {

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  RESIPE_REQUIRE(layer != nullptr, "null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

detail::ActivationStack& detail::activation_stack() {
  thread_local ActivationStack stack;
  return stack;
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  if (!train) {
    return walk_steps(x, layers_.size(),
                      [&](std::size_t i, const Tensor& in, Tensor& out) {
                        layers_[i]->forward_into(in, out);
                      });
  }
  Tensor h = x;
  for (auto& layer : layers_) h = layer->forward(h, train);
  return h;
}

void Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) g = layers_[i]->backward(g);
}

std::vector<Param> Sequential::params() {
  std::vector<Param> out;
  for (auto& layer : layers_) {
    for (const Param& p : layer->params()) out.push_back(p);
  }
  return out;
}

void Sequential::zero_grads() {
  for (const Param& p : params()) p.grad->fill(0.0);
}

std::size_t Sequential::parameter_count() {
  std::size_t n = 0;
  for (const Param& p : params()) n += p.value->size();
  return n;
}

Layer& Sequential::layer(std::size_t i) {
  RESIPE_REQUIRE(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

std::string Sequential::summary() {
  std::ostringstream os;
  os << name_ << " (" << parameter_count() << " parameters)\n";
  for (std::size_t i = 0; i < layers_.size(); ++i)
    os << "  [" << i << "] " << layers_[i]->describe() << "\n";
  return os.str();
}

std::size_t fold_batchnorm(Sequential& model) {
  std::size_t folded = 0;
  for (std::size_t i = 0; i + 1 < model.layer_count(); ++i) {
    auto* conv = dynamic_cast<Conv2d*>(&model.layer(i));
    auto* bn = dynamic_cast<BatchNorm2d*>(&model.layer(i + 1));
    if (conv == nullptr || bn == nullptr) continue;
    RESIPE_REQUIRE(bn->channels() == conv->out_channels(),
                   "batchnorm channel count does not match the conv");
    Tensor& w = conv->weights();
    Tensor& b = conv->bias();
    const std::size_t cin = conv->in_channels();
    const std::size_t k = conv->kernel();
    for (std::size_t oc = 0; oc < conv->out_channels(); ++oc) {
      const double scale = bn->effective_scale(oc);
      const double shift = bn->effective_shift(oc);
      for (std::size_t ic = 0; ic < cin; ++ic)
        for (std::size_t kr = 0; kr < k; ++kr)
          for (std::size_t kc = 0; kc < k; ++kc)
            w.at(oc, ic, kr, kc) *= scale;
      b.at(0, oc) = scale * b.at(0, oc) + shift;
      // Reset the BN to an exact identity at inference: with
      // gamma = sqrt(var + eps) and beta = mean, (x - mean)/std * gamma
      // + beta == x.
      bn->gamma().at(0, oc) =
          std::sqrt(bn->running_var().at(0, oc) + bn->eps());
      bn->beta().at(0, oc) = bn->running_mean().at(0, oc);
    }
    ++folded;
  }
  return folded;
}

std::size_t Sequential::matrix_layer_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) {
    if (layer->is_matrix_layer()) ++n;
  }
  return n;
}

}  // namespace resipe::nn
