#include "resipe/nn/train.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "resipe/common/error.hpp"
#include "resipe/nn/data.hpp"

namespace resipe::nn {
namespace {

TEST(Softmax, RowsSumToOne) {
  Tensor logits({2, 3}, {1.0, 2.0, 3.0, -5.0, 0.0, 5.0});
  const Tensor p = softmax(logits);
  for (std::size_t i = 0; i < 2; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      sum += p.at(i, j);
      EXPECT_GT(p.at(i, j), 0.0);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Softmax, NumericallyStableForHugeLogits) {
  Tensor logits({1, 2}, {1000.0, 1001.0});
  const Tensor p = softmax(logits);
  EXPECT_NEAR(p.at(0, 0) + p.at(0, 1), 1.0, 1e-12);
  EXPECT_FALSE(std::isnan(p.at(0, 0)));
}

TEST(CrossEntropy, PerfectPredictionHasLowLoss) {
  Tensor logits({1, 3}, {10.0, -10.0, -10.0});
  const std::vector<int> labels{0};
  EXPECT_LT(softmax_cross_entropy(logits, labels).loss, 1e-6);
}

TEST(CrossEntropy, UniformPredictionIsLogK) {
  Tensor logits({1, 4});
  const std::vector<int> labels{2};
  EXPECT_NEAR(softmax_cross_entropy(logits, labels).loss, std::log(4.0),
              1e-9);
}

TEST(CrossEntropy, RejectsBadLabels) {
  Tensor logits({1, 3});
  const std::vector<int> labels{3};
  EXPECT_THROW(softmax_cross_entropy(logits, labels), Error);
}

TEST(Accuracy, CountsArgmaxHits) {
  Tensor logits({2, 2}, {0.9, 0.1, 0.2, 0.8});
  const std::vector<int> labels_right{0, 1};
  const std::vector<int> labels_half{0, 0};
  EXPECT_DOUBLE_EQ(accuracy(logits, labels_right), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, labels_half), 0.5);
}

TEST(Sgd, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 via its gradient 2(w - 3).
  Tensor w({1, 1}, {0.0});
  Tensor g({1, 1});
  Sgd opt(0.1, 0.0);
  const std::vector<Param> params{{&w, &g}};
  for (int i = 0; i < 200; ++i) {
    g[0] = 2.0 * (w[0] - 3.0);
    opt.step(params);
  }
  EXPECT_NEAR(w[0], 3.0, 1e-6);
}

TEST(Adam, ConvergesOnQuadratic) {
  Tensor w({1, 1}, {10.0});
  Tensor g({1, 1});
  Adam opt(0.3);
  const std::vector<Param> params{{&w, &g}};
  for (int i = 0; i < 500; ++i) {
    g[0] = 2.0 * (w[0] - 3.0);
    opt.step(params);
  }
  EXPECT_NEAR(w[0], 3.0, 1e-3);
}

TEST(Dataset, GatherCopiesSamplesAndLabels) {
  Dataset ds;
  ds.images = Tensor({3, 1, 2, 2});
  for (std::size_t i = 0; i < ds.images.size(); ++i)
    ds.images[i] = static_cast<double>(i);
  ds.labels = {7, 8, 9};
  const std::vector<std::size_t> idx{2, 0};
  auto [batch, ys] = ds.gather(idx);
  EXPECT_EQ(batch.dim(0), 2u);
  EXPECT_DOUBLE_EQ(batch[0], 8.0);  // first pixel of sample 2
  EXPECT_EQ(ys[0], 9);
  EXPECT_EQ(ys[1], 7);
}

TEST(Fit, LearnsASeparableProblem) {
  // Tiny digit subset: a linear model should exceed 80% quickly.
  Rng rng(9);
  Dataset train = synthetic_digits(1500, rng);
  Dataset test = synthetic_digits(200, rng);
  Sequential model("tiny");
  model.emplace<Flatten>();
  model.emplace<Dense>(784, 10, rng);
  TrainConfig cfg;
  cfg.epochs = 4;
  cfg.lr = 1e-3;
  const TrainResult result = fit(model, train, test, cfg);
  EXPECT_EQ(result.epoch_loss.size(), 4u);
  EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front());
  EXPECT_GT(result.test_accuracy, 0.8);
}

TEST(Fit, WeightNoiseInjectionStillLearns) {
  Rng rng(12);
  Dataset train = synthetic_digits(800, rng);
  Dataset test = synthetic_digits(120, rng);
  Sequential model("noisy-train");
  model.emplace<Flatten>();
  model.emplace<Dense>(784, 10, rng);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.lr = 1e-3;
  cfg.weight_noise_sigma = 0.15;
  const TrainResult result = fit(model, train, test, cfg);
  EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front());
  EXPECT_GT(result.test_accuracy, 0.7);
}

TEST(Fit, RejectsNegativeWeightNoise) {
  Rng rng(13);
  Dataset train = synthetic_digits(64, rng);
  Sequential model("m");
  model.emplace<Flatten>();
  model.emplace<Dense>(784, 10, rng);
  TrainConfig cfg;
  cfg.weight_noise_sigma = -0.1;
  EXPECT_THROW(fit(model, train, train, cfg), Error);
}

TEST(EvaluateWith, UsesCustomForward) {
  Rng rng(10);
  Dataset data = synthetic_digits(32, rng);
  // An oracle that always answers the true label scores 100%.
  std::size_t cursor = 0;
  const double acc = evaluate_with(
      data,
      [&](const Tensor& batch) {
        Tensor logits({batch.dim(0), 10});
        for (std::size_t i = 0; i < batch.dim(0); ++i) {
          logits.at(i, static_cast<std::size_t>(data.labels[cursor + i])) =
              1.0;
        }
        cursor += batch.dim(0);
        return logits;
      },
      /*batch_size=*/8);
  EXPECT_DOUBLE_EQ(acc, 1.0);
}

}  // namespace
}  // namespace resipe::nn
