#include "resipe/nn/zoo.hpp"

#include <algorithm>
#include <numeric>

#include "resipe/common/error.hpp"
#include "resipe/nn/data.hpp"
#include "resipe/nn/serialize.hpp"

namespace resipe::nn {

std::string benchmark_name(BenchmarkNet net) {
  switch (net) {
    case BenchmarkNet::kMlp1: return "MLP-1";
    case BenchmarkNet::kMlp2: return "MLP-2";
    case BenchmarkNet::kCnn1: return "CNN-1 (LeNet)";
    case BenchmarkNet::kCnn2: return "CNN-2 (AlexNet-class)";
    case BenchmarkNet::kCnn3: return "CNN-3 (VGG16-class)";
    case BenchmarkNet::kCnn4: return "CNN-4 (VGG19-class)";
  }
  RESIPE_ASSERT(false, "unknown benchmark");
}

bool uses_object_dataset(BenchmarkNet net) {
  return net == BenchmarkNet::kCnn2 || net == BenchmarkNet::kCnn3 ||
         net == BenchmarkNet::kCnn4;
}

namespace {

void add_conv_block(Sequential& m, std::size_t& cin, std::size_t cout,
                    Rng& rng) {
  m.emplace<Conv2d>(cin, cout, 3, 1, 1, rng);
  m.emplace<ReLU>();
  cin = cout;
}

Sequential build_mlp1(Rng& rng) {
  Sequential m("MLP-1");
  m.emplace<Flatten>();
  m.emplace<Dense>(784, 10, rng);
  return m;
}

Sequential build_mlp2(Rng& rng) {
  Sequential m("MLP-2");
  m.emplace<Flatten>();
  m.emplace<Dense>(784, 128, rng);
  m.emplace<ReLU>();
  m.emplace<Dense>(128, 10, rng);
  return m;
}

Sequential build_lenet(Rng& rng) {
  Sequential m("CNN-1");
  m.emplace<Conv2d>(1, 6, 5, 1, 2, rng);   // 28 -> 28
  m.emplace<ReLU>();
  m.emplace<MaxPool2d>(2);                 // -> 14
  m.emplace<Conv2d>(6, 16, 5, 1, 0, rng);  // -> 10
  m.emplace<ReLU>();
  m.emplace<MaxPool2d>(2);                 // -> 5
  m.emplace<Flatten>();                    // 400
  m.emplace<Dense>(400, 120, rng);
  m.emplace<ReLU>();
  m.emplace<Dense>(120, 84, rng);
  m.emplace<ReLU>();
  m.emplace<Dense>(84, 10, rng);
  return m;
}

Sequential build_alexnet(Rng& rng) {
  // AlexNet topology scaled to 32x32: 5 conv layers, 3 pools, 2-FC head.
  Sequential m("CNN-2");
  std::size_t c = 3;
  add_conv_block(m, c, 12, rng);
  m.emplace<MaxPool2d>(2);  // 16
  add_conv_block(m, c, 24, rng);
  m.emplace<MaxPool2d>(2);  // 8
  add_conv_block(m, c, 32, rng);
  add_conv_block(m, c, 32, rng);
  add_conv_block(m, c, 24, rng);
  m.emplace<MaxPool2d>(2);  // 4
  m.emplace<Flatten>();     // 24 * 16 = 384
  m.emplace<Dense>(384, 96, rng);
  m.emplace<ReLU>();
  m.emplace<Dense>(96, 10, rng);
  return m;
}

Sequential build_vgg(std::size_t convs_per_block[5], const char* name,
                     Rng& rng) {
  // VGG topology on 32x32: five conv blocks with the original depth
  // pattern, widths reduced ~8x.  Pooling after the first four blocks
  // only (32 -> 16 -> 8 -> 4 -> 2); the fifth block convolves at 2x2,
  // leaving a 2*2*32 = 128-wide feature vector for the 3-FC head —
  // the CPU-trainable equivalent of VGG's 512-wide bottleneck.
  static constexpr std::size_t kWidths[5] = {8, 16, 24, 32, 32};
  Sequential m(name);
  std::size_t c = 3;
  for (std::size_t b = 0; b < 5; ++b) {
    for (std::size_t i = 0; i < convs_per_block[b]; ++i)
      add_conv_block(m, c, kWidths[b], rng);
    if (b < 4) m.emplace<MaxPool2d>(2);
  }
  m.emplace<Flatten>();  // 2 * 2 * 32 = 128
  m.emplace<Dense>(128, 64, rng);
  m.emplace<ReLU>();
  m.emplace<Dense>(64, 48, rng);
  m.emplace<ReLU>();
  m.emplace<Dense>(48, 10, rng);
  return m;
}

}  // namespace

Sequential build_benchmark(BenchmarkNet net, Rng& rng) {
  switch (net) {
    case BenchmarkNet::kMlp1: return build_mlp1(rng);
    case BenchmarkNet::kMlp2: return build_mlp2(rng);
    case BenchmarkNet::kCnn1: return build_lenet(rng);
    case BenchmarkNet::kCnn2: return build_alexnet(rng);
    case BenchmarkNet::kCnn3: {
      std::size_t blocks[5] = {2, 2, 3, 3, 3};  // 13 convs = VGG16
      return build_vgg(blocks, "CNN-3", rng);
    }
    case BenchmarkNet::kCnn4: {
      std::size_t blocks[5] = {2, 2, 4, 4, 4};  // 16 convs = VGG19
      return build_vgg(blocks, "CNN-4", rng);
    }
  }
  RESIPE_ASSERT(false, "unknown benchmark");
}

std::vector<BenchmarkNet> all_benchmarks() {
  return {BenchmarkNet::kMlp1, BenchmarkNet::kMlp2, BenchmarkNet::kCnn1,
          BenchmarkNet::kCnn2, BenchmarkNet::kCnn3, BenchmarkNet::kCnn4};
}

TrainedBenchmark train_benchmark(BenchmarkNet net, const TrainRecipe& recipe) {
  constexpr std::uint64_t kModelSeed = 0xC0FFEE;
  constexpr std::size_t kCalibrationImages = 48;
  Rng data_rng(recipe.data_seed);
  Rng train_rng = data_rng.split();
  Rng test_rng = data_rng.split();
  const auto synthesize =
      uses_object_dataset(net) ? synthetic_objects : synthetic_digits;
  const Dataset train = synthesize(recipe.train_samples, train_rng);
  TrainedBenchmark out;
  out.test = synthesize(recipe.test_samples, test_rng);
  Rng model_rng(kModelSeed + static_cast<std::uint64_t>(net));
  out.model = build_benchmark(net, model_rng);

  const std::string& cache = recipe.weight_cache;
  if (!cache.empty() && weights_compatible(out.model, cache)) {
    load_weights(out.model, cache);
  } else {
    TrainConfig tc;
    tc.epochs = recipe.epochs;
    tc.batch_size = 32;
    tc.lr = 1e-3;
    tc.verbose = recipe.verbose;
    out.fit = fit(out.model, train, out.test, tc);
    if (!cache.empty()) save_weights(out.model, cache);
  }
  std::vector<std::size_t> first(std::min(kCalibrationImages, train.size()));
  std::iota(first.begin(), first.end(), std::size_t{0});
  out.calibration = train.gather(first).first;
  return out;
}

}  // namespace resipe::nn
