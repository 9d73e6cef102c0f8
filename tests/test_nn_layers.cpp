#include "resipe/nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

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
// sprinkled in.  [n, 4, 64, 64] holds enough elements per image that
// an eval forward splits the batch into one-image chunks.
Tensor awkward_batch(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x({n, 4, 64, 64});
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {-0.0, kInf, -kInf,
                             std::numeric_limits<double>::quiet_NaN()};
  for (double& v : x.data()) {
    v = 0.5 * static_cast<double>(rng.uniform_int(-3, 3));
    if (rng.bernoulli(0.05)) v = specials[rng.uniform_int(0, 3)];
  }
  return x;
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

TEST(AvgPool2d, AveragesWindows) {
  AvgPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 6});
  const Tensor y = pool.forward(x, false);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
}

TEST(AvgPool2d, BackwardSpreadsUniformly) {
  AvgPool2d pool(2);
  Tensor x({1, 1, 2, 2});
  pool.forward(x, true);
  const Tensor gx = pool.backward(Tensor({1, 1, 1, 1}, {4.0}));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(gx[i], 1.0);
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
