#include "resipe/nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "resipe/common/error.hpp"
#include "resipe/common/parallel.hpp"

namespace resipe::nn {
namespace {

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

// Half-integer steps make many window ties; -0.0, +-inf and NaN are
// sprinkled in.
Tensor awkward_batch(std::vector<std::size_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(std::move(shape));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {-0.0, kInf, -kInf,
                             std::numeric_limits<double>::quiet_NaN()};
  for (double& v : x.data()) {
    v = 0.5 * static_cast<double>(rng.uniform_int(-3, 3));
    if (rng.bernoulli(0.05)) v = specials[rng.uniform_int(0, 3)];
  }
  return x;
}

// [n, 4, 64, 64] holds enough elements per image that an eval forward
// splits the batch into one-image chunks.
Tensor awkward_batch(std::size_t n, std::uint64_t seed) {
  return awkward_batch({n, 4, 64, 64}, seed);
}

// Eval forwards run images on the pool; a training forward runs on the
// caller.  Each element's arithmetic is the same, so the outputs must
// agree bit for bit at every thread count.
void expect_eval_matches_train(Layer& eval_layer, Layer& train_layer,
                               const Tensor& x) {
  const Tensor want = train_layer.forward(x, /*train=*/true);
  for (const std::size_t threads : {1, 2, 8}) {
    set_default_threads(threads);
    EXPECT_TRUE(bit_equal(eval_layer.forward(x, /*train=*/false), want))
        << eval_layer.describe() << " batch " << x.dim(0) << " at "
        << threads << " threads";
  }
  set_default_threads(0);
}

void expect_backward_before_train(Layer& layer, const Tensor& grad) {
  try {
    layer.backward(grad);
    ADD_FAILURE() << layer.describe() << ": backward after an eval forward";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("backward before forward(train)"),
              std::string::npos)
        << e.what();
  }
}

// Equal bit for bit, except that any two NaNs match: a NaN's payload
// depends on which operand of an add the compiler puts first.
bool same_values(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double u = a[i], v = b[i];
    if (std::isnan(u) && std::isnan(v)) continue;
    if (std::memcmp(&u, &v, sizeof(double)) != 0) return false;
  }
  return true;
}

// The accumulation-order references, one output at a time through
// Tensor::at.  A conv output starts at the bias and adds x * w for
// (ic, kr, kc) ascending, skipping padding; a dense output starts at
// the bias and adds x_k * w_kj for k ascending, skipping x_k == 0.
Tensor reference_conv(const Conv2d& conv, const Tensor& x) {
  const std::size_t n = x.dim(0);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t k = conv.kernel();
  const std::size_t stride = conv.stride();
  const auto pad = static_cast<std::ptrdiff_t>(conv.pad());
  const std::size_t oh = conv.out_size(h);
  const std::size_t ow = conv.out_size(w);
  Tensor y({n, conv.out_channels(), oh, ow});
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oc = 0; oc < conv.out_channels(); ++oc) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          double acc = conv.bias().at(0, oc);
          for (std::size_t ic = 0; ic < conv.in_channels(); ++ic) {
            for (std::size_t kr = 0; kr < k; ++kr) {
              const std::ptrdiff_t ir =
                  static_cast<std::ptrdiff_t>(r * stride + kr) - pad;
              if (ir < 0 || ir >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kc = 0; kc < k; ++kc) {
                const std::ptrdiff_t icol =
                    static_cast<std::ptrdiff_t>(c * stride + kc) - pad;
                if (icol < 0 || icol >= static_cast<std::ptrdiff_t>(w))
                  continue;
                acc += x.at(img, ic, static_cast<std::size_t>(ir),
                            static_cast<std::size_t>(icol)) *
                       conv.weights().at(oc, ic, kr, kc);
              }
            }
          }
          y.at(img, oc, r, c) = acc;
        }
      }
    }
  }
  return y;
}

Tensor reference_dense(const Dense& d, const Tensor& x) {
  Tensor y({x.dim(0), d.out_features()});
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    for (std::size_t j = 0; j < d.out_features(); ++j)
      y.at(i, j) = d.bias().at(0, j);
    for (std::size_t k = 0; k < d.in_features(); ++k) {
      const double xv = x.at(i, k);
      if (xv == 0.0) continue;
      for (std::size_t j = 0; j < d.out_features(); ++j)
        y.at(i, j) += xv * d.weights().at(k, j);
    }
  }
  return y;
}

// `layer`'s eval forward at 1, 2 and 8 threads and its training forward
// must each equal `want`.
void expect_forwards_match(Layer& layer, const Tensor& x, const Tensor& want) {
  for (const std::size_t threads : {1, 2, 8}) {
    set_default_threads(threads);
    EXPECT_TRUE(same_values(layer.forward(x, /*train=*/false), want))
        << layer.describe() << " input " << x.shape_str() << " at "
        << threads << " threads";
  }
  set_default_threads(0);
  EXPECT_TRUE(same_values(layer.forward(x, /*train=*/true), want))
      << layer.describe() << " input " << x.shape_str() << ", training";
}

TEST(Dense, ForwardMatchesHandComputation) {
  Rng rng(1);
  Dense d(2, 3, rng);
  d.weights() = Tensor({2, 3}, {1, 2, 3, 4, 5, 6});
  d.bias() = Tensor({1, 3}, {0.1, 0.2, 0.3});
  const Tensor x({1, 2}, {1.0, 0.5});
  const Tensor y = d.forward(x, false);
  // y = [1*1 + 0.5*4, 1*2 + 0.5*5, 1*3 + 0.5*6] + b
  EXPECT_NEAR(y.at(0, 0), 3.1, 1e-12);
  EXPECT_NEAR(y.at(0, 1), 4.7, 1e-12);
  EXPECT_NEAR(y.at(0, 2), 6.3, 1e-12);
}

TEST(Dense, RejectsWrongInputWidth) {
  Rng rng(1);
  Dense d(4, 2, rng);
  EXPECT_THROW(d.forward(Tensor({1, 3}), false), Error);
}

TEST(Dense, BackwardRequiresTrainingForward) {
  Rng rng(1);
  Dense d(2, 2, rng);
  d.forward(Tensor({1, 2}), false);
  EXPECT_THROW(d.backward(Tensor({1, 2})), Error);
}

TEST(Dense, DescribeAndParams) {
  Rng rng(1);
  Dense d(3, 5, rng);
  EXPECT_EQ(d.describe(), "Dense(3 -> 5)");
  EXPECT_TRUE(d.is_matrix_layer());
  const auto params = d.params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].value->size(), 15u);
  EXPECT_EQ(params[1].value->size(), 5u);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Rng rng(1);
  Conv2d conv(1, 1, 1, 1, 0, rng);  // 1x1 kernel
  conv.weights().fill(1.0);
  conv.bias().fill(0.0);
  Tensor x({1, 1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) x[i] = static_cast<double>(i);
  const Tensor y = conv.forward(x, false);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Conv2d, SumKernelMatchesHandComputation) {
  Rng rng(1);
  Conv2d conv(1, 1, 3, 1, 0, rng);
  conv.weights().fill(1.0);  // 3x3 box filter
  conv.bias().fill(0.5);
  Tensor x({1, 1, 3, 3});
  x.fill(2.0);
  const Tensor y = conv.forward(x, false);
  ASSERT_EQ(y.dim(2), 1u);
  EXPECT_DOUBLE_EQ(y.at(0, 0, 0, 0), 18.0 + 0.5);
}

TEST(Conv2d, PaddingKeepsSpatialSize) {
  Rng rng(1);
  Conv2d conv(1, 2, 3, 1, 1, rng);
  const Tensor x({2, 1, 8, 8});
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 2u);
  EXPECT_EQ(y.dim(2), 8u);
  EXPECT_EQ(y.dim(3), 8u);
}

TEST(Conv2d, StrideReducesOutput) {
  Rng rng(1);
  Conv2d conv(1, 1, 3, 2, 0, rng);
  EXPECT_EQ(conv.out_size(7), 3u);
  EXPECT_THROW(conv.out_size(1), Error);
}

TEST(Conv2d, EvalForwardMatchesTrainingForwardAtAnyThreadCount) {
  for (const std::size_t n : {1, 5}) {
    Rng eval_rng(n), train_rng(n);
    Conv2d eval_conv(4, 3, 3, 1, 1, eval_rng);
    Conv2d train_conv(4, 3, 3, 1, 1, train_rng);
    expect_eval_matches_train(eval_conv, train_conv, awkward_batch(n, n));
  }
}

TEST(Conv2d, ForwardMatchesIndexedReferenceBitForBit) {
  // A non-square input, and a 1-pixel-wide one on which some kernel
  // columns reach no output column.
  const std::vector<std::vector<std::size_t>> shapes = {{3, 2, 7, 11},
                                                        {2, 2, 4, 1}};
  std::uint64_t seed = 1;
  for (const auto& shape : shapes) {
    for (const std::size_t k : {1, 3, 5}) {
      for (const std::size_t stride : {1, 2, 3}) {
        for (const std::size_t pad : {0, 1, 2}) {
          if (shape[2] + 2 * pad < k || shape[3] + 2 * pad < k) continue;
          Rng rng(++seed);
          Conv2d conv(2, 3, k, stride, pad, rng);
          // An output that reads only padding keeps this -0.0 bias;
          // adding 0 * w there would make it +0.0.
          conv.bias().at(0, 1) = -0.0;
          const Tensor x = awkward_batch(shape, seed);
          expect_forwards_match(conv, x, reference_conv(conv, x));
        }
      }
    }
  }
}

TEST(Dense, EvalForwardMatchesTrainingForwardAtAnyThreadCount) {
  for (const std::size_t n : {1, 5, 40}) {
    Rng eval_rng(n), train_rng(n);
    Dense eval_dense(64, 48, eval_rng), train_dense(64, 48, train_rng);
    const Tensor x = awkward_batch({n, 64}, n);
    expect_eval_matches_train(eval_dense, train_dense, x);
  }
}

TEST(Dense, ForwardMatchesIndexedReferenceBitForBit) {
  Rng rng(5);
  Dense d(24, 7, rng);
  d.bias().at(0, 2) = -0.0;
  d.weights().at(3, 4) = std::numeric_limits<double>::infinity();
  Tensor x = awkward_batch({9, 24}, 5);
  // Row 0 all +0.0, row 1 all -0.0 (zero skips keep the -0.0 bias and
  // never meet 0 * inf), row 2 holds a NaN.
  for (std::size_t k = 0; k < 24; ++k) {
    x.at(0, k) = 0.0;
    x.at(1, k) = -0.0;
  }
  x.at(2, 5) = std::numeric_limits<double>::quiet_NaN();
  const Tensor want = reference_dense(d, x);
  expect_forwards_match(d, x, want);
  for (const std::size_t row : {0, 1}) {
    EXPECT_TRUE(std::signbit(want.at(row, 2))) << "row " << row;
    EXPECT_FALSE(std::isnan(want.at(row, 4))) << "row " << row;
  }
  EXPECT_TRUE(std::isnan(want.at(2, 0)));
}

TEST(MaxPool2d, SelectsWindowMaxima) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 4}, {1, 5, 2, 0,
                          3, 4, 9, 1});
  const Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y.at(0, 0, 0, 0), 5.0);
  EXPECT_DOUBLE_EQ(y.at(0, 0, 0, 1), 9.0);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 4});
  pool.forward(x, true);
  Tensor g({1, 1, 1, 1}, {2.0});
  const Tensor gx = pool.backward(g);
  EXPECT_DOUBLE_EQ(gx[0], 0.0);
  EXPECT_DOUBLE_EQ(gx[1], 2.0);  // the max at index 1
  EXPECT_DOUBLE_EQ(gx[2], 0.0);
  EXPECT_DOUBLE_EQ(gx[3], 0.0);
}

TEST(MaxPool2d, RejectsNonDivisibleWindows) {
  MaxPool2d pool(2);
  EXPECT_THROW(pool.forward(Tensor({1, 1, 3, 4}), false), Error);
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor x({1, 4}, {-1.0, 0.0, 2.0, -3.0});
  const Tensor y = relu.forward(x, false);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(ReLU, GradientMasksNegatives) {
  ReLU relu;
  Tensor x({1, 3}, {-1.0, 1.0, 0.0});
  relu.forward(x, true);
  const Tensor gx = relu.backward(Tensor({1, 3}, {5.0, 5.0, 5.0}));
  EXPECT_DOUBLE_EQ(gx[0], 0.0);
  EXPECT_DOUBLE_EQ(gx[1], 5.0);
  EXPECT_DOUBLE_EQ(gx[2], 0.0);  // x == 0 has zero subgradient here
}

TEST(ReLU, EvalForwardMatchesTrainingForwardAtAnyThreadCount) {
  for (const std::size_t n : {1, 5}) {
    ReLU eval_relu, train_relu;
    expect_eval_matches_train(eval_relu, train_relu, awkward_batch(n, n));
  }
}

TEST(ReLU, EvalForwardLeavesNoState) {
  ReLU relu;
  const Tensor x = awkward_batch(5, 3);
  relu.forward(x, false);
  expect_backward_before_train(relu, x);
}

TEST(ReLU, EmptyAndRankZeroInputsPassThrough) {
  ReLU relu;
  EXPECT_EQ(relu.forward(Tensor(), false).rank(), 0u);
  EXPECT_EQ(relu.forward(Tensor({0, 3}), false).shape(),
            (std::vector<std::size_t>{0, 3}));
}

TEST(MaxPool2d, EvalForwardMatchesTrainingForwardAtAnyThreadCount) {
  for (const std::size_t n : {1, 5}) {
    for (const std::size_t k : {2, 4}) {
      MaxPool2d eval_pool(k), train_pool(k);
      expect_eval_matches_train(eval_pool, train_pool, awkward_batch(n, n));
    }
  }
}

TEST(MaxPool2d, TiesKeepTheFirstMaximumInScanOrder) {
  MaxPool2d pool(2);
  // -0.0 before +0.0: strict > keeps -0.0; NaN never wins.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Tensor x({1, 1, 2, 4}, {-0.0, 0.0, nan, nan,
                                0.0, -1.0, nan, -2.0});
  const Tensor y = pool.forward(x, false);
  EXPECT_TRUE(std::signbit(y[0]));
  EXPECT_EQ(y[1], -2.0);
}

TEST(MaxPool2d, EvalFoldKeepsTheScanBitsOnEveryWindowOfSpecials) {
  // Every 2x2 window over {+0, -0, NaN, -inf, +inf, 0.5}, each its own
  // output column: the eval fold equals the training scan bit for bit
  // (the first of tied +-0 wins, NaN never wins, NaN and -inf alone give
  // -inf).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double vals[] = {0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
                         -kInf, kInf, 0.5};
  constexpr std::size_t kVals = 6;
  constexpr std::size_t kWindows = kVals * kVals * kVals * kVals;
  Tensor x({1, 1, 2, 2 * kWindows});
  for (std::size_t win = 0; win < kWindows; ++win) {
    x.at(0, 0, 0, 2 * win) = vals[win % kVals];
    x.at(0, 0, 0, 2 * win + 1) = vals[win / kVals % kVals];
    x.at(0, 0, 1, 2 * win) = vals[win / (kVals * kVals) % kVals];
    x.at(0, 0, 1, 2 * win + 1) = vals[win / (kVals * kVals * kVals)];
  }
  MaxPool2d eval_pool(2), train_pool(2);
  const Tensor want = train_pool.forward(x, /*train=*/true);
  const Tensor got = eval_pool.forward(x, /*train=*/false);
  ASSERT_TRUE(got.same_shape(want));
  for (std::size_t win = 0; win < kWindows; ++win) {
    const double g = got[win];
    const double w = want[win];
    EXPECT_EQ(std::memcmp(&g, &w, sizeof(double)), 0)
        << "window " << win << ": eval " << g << ", scan " << w;
  }
  // Spot checks of the scan rule itself.
  EXPECT_TRUE(std::signbit(want[1 + kVals]));  // -0, -0, +0, +0: -0 first
  EXPECT_EQ(want[2 + 2 * kVals + 3 * kVals * kVals + 3 * kVals * kVals *
                                                          kVals],
            -kInf);  // NaN, NaN, -inf, -inf
}

TEST(MaxPool2d, EvalForwardLeavesNoState) {
  MaxPool2d pool(2);
  const Tensor x = awkward_batch(5, 4);
  const Tensor y = pool.forward(x, false);
  expect_backward_before_train(pool, y);
  EXPECT_EQ(pool.forward(Tensor({0, 2, 4, 4}), false).size(), 0u);
}

TEST(Flatten, CollapsesAndRestores) {
  Flatten flat;
  Tensor x({2, 3, 4, 5});
  const Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 60u);
  const Tensor gx = flat.backward(Tensor({2, 60}));
  EXPECT_EQ(gx.shape(), x.shape());
}

}  // namespace
}  // namespace resipe::nn
