// Sequential network container.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "resipe/nn/layers.hpp"

namespace resipe::nn {

namespace detail {

/// The activation buffers of the walks on one thread: pair d belongs to
/// the walk at nesting depth d.
struct ActivationStack {
  std::vector<std::unique_ptr<std::array<Tensor, 2>>> pairs;
  std::size_t depth = 0;
};

/// The calling thread's stack.
ActivationStack& activation_stack();

}  // namespace detail

/// Runs `count` eval-mode steps over `x`, where step(i, in, out) writes
/// step i's output into `out`, and returns the last output.  The first
/// step reads x in place, the last writes the returned tensor, and the
/// steps between alternate between two buffers the calling thread keeps
/// across walks, whose capacity only grows: once they have held a
/// walk's largest shapes, a walk allocates only what it returns.  `in`
/// and `out` are valid only during the step call.  A step may walk
/// again on the same thread; the nested walk takes a pair of its own.
template <class Step>
Tensor walk_steps(const Tensor& x, std::size_t count, Step&& step) {
  if (count == 0) return x;
  detail::ActivationStack& stack = detail::activation_stack();
  if (stack.depth == stack.pairs.size()) {
    stack.pairs.push_back(std::make_unique<std::array<Tensor, 2>>());
  }
  std::array<Tensor, 2>& buffers = *stack.pairs[stack.depth];
  const struct Leave {
    std::size_t& depth;
    ~Leave() { --depth; }
  } leave{++stack.depth};
  Tensor result;
  const Tensor* in = &x;
  for (std::size_t i = 0; i < count; ++i) {
    Tensor& out = i + 1 == count ? result : buffers[i % 2];
    step(i, *in, out);
    in = &out;
  }
  return result;
}

/// A feed-forward stack of layers executed in order.
class Sequential {
 public:
  Sequential() = default;
  explicit Sequential(std::string name) : name_(std::move(name)) {}

  /// Appends a layer; returns *this for chaining.
  Sequential& add(std::unique_ptr<Layer> layer);

  /// Convenience: constructs the layer in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// Full forward pass.  Eval mode walks the layers' forward_into
  /// through walk_steps, so it allocates only the returned tensor once
  /// the thread's buffers have grown.
  Tensor forward(const Tensor& x, bool train = false);

  /// Backward pass through every layer (after a forward with
  /// train=true).
  void backward(const Tensor& grad_out);

  /// All trainable parameters in layer order.
  std::vector<Param> params();

  /// Zeroes all parameter gradients.
  void zero_grads();

  /// Number of scalar parameters.
  std::size_t parameter_count();

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i);
  const std::string& name() const { return name_; }

  /// Multi-line summary of the architecture.
  std::string summary();

  /// Count of matrix (crossbar-mapped) layers.
  std::size_t matrix_layer_count() const;

 private:
  std::string name_ = "model";
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Folds every Conv2d -> BatchNorm2d pair for inference: the BN's
/// effective per-channel scale/shift is absorbed into the conv's
/// weights and bias, and the BN layer is reset to an exact identity.
/// Standard PIM mapping step — a folded network needs no BN circuitry.
/// Returns the number of pairs folded.  Call only on a trained model
/// (uses the BN running statistics).
std::size_t fold_batchnorm(Sequential& model);

}  // namespace resipe::nn
