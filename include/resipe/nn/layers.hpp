// Neural-network layers with forward and backward passes.
//
// The layer set is exactly what the paper's six benchmark networks need
// (Sec. IV-C): dense (perceptron) layers, 2-D convolutions, max
// pooling, ReLU, and flatten.  Each layer caches its forward input so
// backward() can compute gradients; parameters and their gradient
// buffers are exposed through params() for the optimizer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "resipe/common/rng.hpp"
#include "resipe/nn/tensor.hpp"

namespace resipe::nn {

/// A trainable parameter: value tensor and its gradient accumulator.
struct Param {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Abstract layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass.  `train` enables training-only behaviour: caching
  /// what backward() needs.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Eval-mode forward into `y`, which must not alias `x`: y ends up
  /// holding forward(x, false), bit for bit.  Dense, Conv2d, ReLU,
  /// MaxPool2d and Flatten write into y's storage through the body their
  /// forward runs, so a buffer reused across calls is not reallocated;
  /// the default moves forward(x, false) into y.
  virtual void forward_into(const Tensor& x, Tensor& y) {
    y = forward(x, /*train=*/false);
  }

  /// Backward pass: gradient w.r.t. this layer's output in, gradient
  /// w.r.t. its input out.  Accumulates parameter gradients.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param> params() { return {}; }

  /// Layer type + shape description for model summaries.
  virtual std::string describe() const = 0;

  /// True for layers realized on ReSiPE crossbars (dense / conv);
  /// pooling and activations run in the spike domain / peripheral
  /// logic.
  virtual bool is_matrix_layer() const { return false; }
};

/// Fully-connected layer: y = x W + b, x: [N, in], W: [in, out].
class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  void forward_into(const Tensor& x, Tensor& y) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param> params() override;
  std::string describe() const override;
  bool is_matrix_layer() const override { return true; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Tensor& weights() { return w_; }
  const Tensor& weights() const { return w_; }
  Tensor& bias() { return b_; }
  const Tensor& bias() const { return b_; }

 private:
  /// Both forwards: writes x W + b into y.
  void run(const Tensor& x, Tensor& y, bool train) const;

  std::size_t in_;
  std::size_t out_;
  Tensor w_;   // [in, out]
  Tensor b_;   // [1, out]
  Tensor gw_;
  Tensor gb_;
  Tensor cached_x_;
};

/// 2-D convolution, stride `stride`, symmetric zero padding `pad`.
/// x: [N, Cin, H, W]; kernels: [Cout, Cin, K, K].
class Conv2d : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t pad, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  void forward_into(const Tensor& x, Tensor& y) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param> params() override;
  std::string describe() const override;
  bool is_matrix_layer() const override { return true; }

  std::size_t in_channels() const { return cin_; }
  std::size_t out_channels() const { return cout_; }
  std::size_t kernel() const { return k_; }
  std::size_t stride() const { return stride_; }
  std::size_t pad() const { return pad_; }
  Tensor& weights() { return w_; }
  const Tensor& weights() const { return w_; }
  Tensor& bias() { return b_; }
  const Tensor& bias() const { return b_; }

  /// Output spatial size for an input of spatial size `in`.
  std::size_t out_size(std::size_t in) const;

 private:
  /// Both forwards: writes the convolution of x into y.
  void run(const Tensor& x, Tensor& y, bool train) const;

  std::size_t cin_;
  std::size_t cout_;
  std::size_t k_;
  std::size_t stride_;
  std::size_t pad_;
  Tensor w_;   // [Cout, Cin, K, K]
  Tensor b_;   // [1, Cout]
  Tensor gw_;
  Tensor gb_;
  Tensor cached_x_;
};

/// Max pooling with square window `k` and stride `k`.
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(std::size_t k);
  Tensor forward(const Tensor& x, bool train) override;
  void forward_into(const Tensor& x, Tensor& y) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string describe() const override;
  std::size_t window() const { return k_; }

 private:
  /// Both forwards: pools x into y (recording argmax when training).
  void run(const Tensor& x, Tensor& y, bool train);

  std::size_t k_;
  Tensor cached_x_;
  std::vector<std::size_t> argmax_;  // flat input index per output elem
};

/// Rectified linear unit.  In the ReSiPE mapping ReLU is free: a
/// negative differential MAC simply produces no spike.
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  void forward_into(const Tensor& x, Tensor& y) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string describe() const override;

 private:
  /// Both forwards: writes max(x, 0) into y.
  static void run(const Tensor& x, Tensor& y, bool train);

  Tensor cached_x_;
};

/// Collapses [N, C, H, W] -> [N, C*H*W].
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  void forward_into(const Tensor& x, Tensor& y) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string describe() const override;

 private:
  /// Both forwards: copies x into y as [N, C*H*W].
  static void run(const Tensor& x, Tensor& y);

  std::vector<std::size_t> in_shape_;
};

}  // namespace resipe::nn
