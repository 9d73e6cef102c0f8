// The six benchmark networks of Sec. IV-C.
//
// The paper evaluates MLP-1, MLP-2 (MNIST perceptrons), CNN-1 (LeNet on
// MNIST), CNN-2 (AlexNet on CIFAR-10), CNN-3 (VGG16) and CNN-4 (VGG19).
// CNN-2..4 here are width-reduced variants that keep the depth and
// topology of the originals (5 / 13 / 16 conv layers + the FC head) so
// the depth-ordering of process-variation sensitivity — the property
// Fig. 7 measures — is preserved while CPU-only training stays
// tractable.  See DESIGN.md "Substitutions".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "resipe/common/rng.hpp"
#include "resipe/nn/model.hpp"
#include "resipe/nn/train.hpp"

namespace resipe::nn {

enum class BenchmarkNet {
  kMlp1,  ///< 1-layer perceptron, 28x28x1 input
  kMlp2,  ///< 2-layer perceptron, 28x28x1 input
  kCnn1,  ///< LeNet (4 weight layers used by the paper), 28x28x1
  kCnn2,  ///< AlexNet-style: 5 conv + 2 FC, 32x32x3
  kCnn3,  ///< VGG16-style: 13 conv + 3 FC, 32x32x3
  kCnn4,  ///< VGG19-style: 16 conv + 3 FC, 32x32x3
};

/// Paper name of the benchmark ("MLP-1", ..., "CNN-4").
std::string benchmark_name(BenchmarkNet net);

/// True for the 32x32x3 (CIFAR-shaped) benchmarks.
bool uses_object_dataset(BenchmarkNet net);

/// Builds the (untrained) network.
Sequential build_benchmark(BenchmarkNet net, Rng& rng);

/// All six benchmarks in paper order.
std::vector<BenchmarkNet> all_benchmarks();

/// What an experiment chooses of the one recipe that trains a
/// benchmark.  The rest is fixed: the data stream Rng(data_seed) split
/// once for the train set and once for the test set, the dataset the
/// net takes (uses_object_dataset), the model seed 0xC0FFEE + net, Adam
/// at batch 32 and lr 1e-3, and a calibration batch of the first
/// min(48, train_samples) training images.
struct TrainRecipe {
  std::size_t train_samples = 0;
  std::size_t test_samples = 0;
  std::size_t epochs = 0;
  std::uint64_t data_seed = 7;
  /// Weight file: loaded instead of training when it fits the model,
  /// else written after training.  Empty = always train, write nothing.
  /// (The braces let a designated initializer omit it without a
  /// -Wmissing-field-initializers warning.)
  std::string weight_cache{};
  bool verbose = false;  ///< TrainConfig::verbose (per-epoch loss lines)
};

/// A benchmark trained (or loaded) by train_benchmark.
struct TrainedBenchmark {
  Sequential model;
  Dataset test;
  Tensor calibration;  ///< the batch the lowering calibrates on
  /// fit()'s result; empty when the weights came from the cache.
  std::optional<TrainResult> fit;
};

/// Builds `net` and trains it by `recipe`, or loads its weights from
/// `recipe.weight_cache`.
TrainedBenchmark train_benchmark(BenchmarkNet net, const TrainRecipe& recipe);

}  // namespace resipe::nn
