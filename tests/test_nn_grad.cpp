// Property tests: every layer's analytic gradients must match central
// finite differences on random inputs — the invariant that makes the
// training substrate trustworthy.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "resipe/nn/layers.hpp"
#include "resipe/nn/train.hpp"

namespace resipe::nn {
namespace {

constexpr double kEps = 1e-6;
constexpr double kTol = 1e-5;

/// Scalar loss used by the checks: sum of elementwise x * coeff, with
/// fixed pseudo-random coefficients so the output gradient is known.
double weighted_sum(const Tensor& t) {
  double s = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    s += t[i] * (0.3 + 0.1 * static_cast<double>(i % 7));
  }
  return s;
}

Tensor weighted_sum_grad(const Tensor& t) {
  Tensor g(t.shape());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = 0.3 + 0.1 * static_cast<double>(i % 7);
  }
  return g;
}

/// Checks d(loss)/d(param) and d(loss)/d(input) for one layer.
void check_layer_gradients(Layer& layer, Tensor x) {
  // Analytic pass.
  for (const Param& p : layer.params()) p.grad->fill(0.0);
  const Tensor y = layer.forward(x, /*train=*/true);
  const Tensor gx = layer.backward(weighted_sum_grad(y));

  // Input gradient by central differences.
  for (std::size_t i = 0; i < x.size(); i += std::max<std::size_t>(
                                            1, x.size() / 23)) {
    const double orig = x[i];
    x[i] = orig + kEps;
    const double up = weighted_sum(layer.forward(x, false));
    x[i] = orig - kEps;
    const double dn = weighted_sum(layer.forward(x, false));
    x[i] = orig;
    const double fd = (up - dn) / (2.0 * kEps);
    EXPECT_NEAR(gx[i], fd, kTol) << "input grad at " << i;
  }

  // Parameter gradients by central differences.
  for (const Param& p : layer.params()) {
    Tensor& w = *p.value;
    const Tensor& gw = *p.grad;
    for (std::size_t i = 0; i < w.size(); i += std::max<std::size_t>(
                                              1, w.size() / 17)) {
      const double orig = w[i];
      w[i] = orig + kEps;
      const double up = weighted_sum(layer.forward(x, false));
      w[i] = orig - kEps;
      const double dn = weighted_sum(layer.forward(x, false));
      w[i] = orig;
      const double fd = (up - dn) / (2.0 * kEps);
      EXPECT_NEAR(gw[i], fd, kTol) << "param grad at " << i;
    }
  }
}

TEST(GradCheck, Dense) {
  Rng rng(2);
  Dense layer(5, 4, rng);
  Tensor x({3, 5});
  x.fill_normal(rng, 1.0);
  check_layer_gradients(layer, x);
}

TEST(GradCheck, Conv2dNoPadding) {
  Rng rng(3);
  Conv2d layer(2, 3, 3, 1, 0, rng);
  Tensor x({2, 2, 5, 5});
  x.fill_normal(rng, 1.0);
  check_layer_gradients(layer, x);
}

TEST(GradCheck, Conv2dWithPaddingAndStride) {
  Rng rng(4);
  Conv2d layer(1, 2, 3, 2, 1, rng);
  Tensor x({1, 1, 7, 7});
  x.fill_normal(rng, 1.0);
  check_layer_gradients(layer, x);
}

TEST(GradCheck, MaxPoolAwayFromTies) {
  Rng rng(6);
  MaxPool2d layer(2);
  Tensor x({1, 1, 4, 4});
  // Distinct values avoid subgradient ambiguity at ties.
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>((i * 7) % 16) + 0.01 * static_cast<double>(i);
  }
  check_layer_gradients(layer, x);
}

TEST(GradCheck, ReluAwayFromKink) {
  Rng rng(7);
  ReLU layer;
  Tensor x({2, 6});
  x.fill_normal(rng, 1.0);
  // Push values away from 0 where ReLU is non-differentiable.
  for (double& v : x.data()) {
    if (std::abs(v) < 0.05) v = 0.5;
  }
  check_layer_gradients(layer, x);
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Rng rng(8);
  Tensor logits({4, 5});
  logits.fill_normal(rng, 1.0);
  const std::vector<int> labels{0, 2, 4, 1};
  const LossResult res = softmax_cross_entropy(logits, labels);

  for (std::size_t i = 0; i < logits.size(); ++i) {
    const double orig = logits[i];
    logits[i] = orig + kEps;
    const double up = softmax_cross_entropy(logits, labels).loss;
    logits[i] = orig - kEps;
    const double dn = softmax_cross_entropy(logits, labels).loss;
    logits[i] = orig;
    EXPECT_NEAR(res.grad[i], (up - dn) / (2.0 * kEps), kTol)
        << "logit " << i;
  }
}

}  // namespace
}  // namespace resipe::nn
