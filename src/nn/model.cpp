#include "resipe/nn/model.hpp"

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

std::size_t Sequential::matrix_layer_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) {
    if (layer->is_matrix_layer()) ++n;
  }
  return n;
}

}  // namespace resipe::nn
