#include "resipe/nn/zoo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "resipe/nn/data.hpp"
#include "resipe/nn/tensor.hpp"

namespace resipe::nn {
namespace {

/// The bytes of a tensor's values, so EXPECT_EQ compares bit for bit.
std::string bits(const Tensor& t) {
  return {reinterpret_cast<const char*>(t.data().data()),
          t.size() * sizeof(double)};
}

/// The bytes of every parameter, in layer order.
std::string bits(Sequential& model) {
  std::string out;
  for (const Param& p : model.params()) out += bits(*p.value);
  return out;
}

Tensor input_for(BenchmarkNet net, std::size_t batch) {
  return uses_object_dataset(net) ? Tensor({batch, 3, 32, 32})
                                  : Tensor({batch, 1, 28, 28});
}

class ZooForward : public ::testing::TestWithParam<BenchmarkNet> {};

TEST_P(ZooForward, ProducesTenLogitsPerSample) {
  Rng rng(1);
  Sequential model = build_benchmark(GetParam(), rng);
  const Tensor x = input_for(GetParam(), 2);
  const Tensor y = model.forward(x, false);
  ASSERT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 10u);
}

TEST_P(ZooForward, HasTrainableParameters) {
  Rng rng(1);
  Sequential model = build_benchmark(GetParam(), rng);
  EXPECT_GT(model.parameter_count(), 0u);
  EXPECT_FALSE(model.summary().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllSixBenchmarks, ZooForward,
    ::testing::Values(BenchmarkNet::kMlp1, BenchmarkNet::kMlp2,
                      BenchmarkNet::kCnn1, BenchmarkNet::kCnn2,
                      BenchmarkNet::kCnn3, BenchmarkNet::kCnn4));

TEST(Zoo, MatrixLayerCountsMatchTopologies) {
  Rng rng(1);
  // MLP-1: 1 dense; MLP-2: 2 dense; LeNet: 2 conv + 3 dense;
  // AlexNet-class: 5 conv + 2 FC; VGG16-class: 13 conv + 3 FC;
  // VGG19-class: 16 conv + 3 FC.
  EXPECT_EQ(build_benchmark(BenchmarkNet::kMlp1, rng).matrix_layer_count(),
            1u);
  EXPECT_EQ(build_benchmark(BenchmarkNet::kMlp2, rng).matrix_layer_count(),
            2u);
  EXPECT_EQ(build_benchmark(BenchmarkNet::kCnn1, rng).matrix_layer_count(),
            5u);
  EXPECT_EQ(build_benchmark(BenchmarkNet::kCnn2, rng).matrix_layer_count(),
            7u);
  EXPECT_EQ(build_benchmark(BenchmarkNet::kCnn3, rng).matrix_layer_count(),
            16u);
  EXPECT_EQ(build_benchmark(BenchmarkNet::kCnn4, rng).matrix_layer_count(),
            19u);
}

TEST(Zoo, DepthOrderingIsPreserved) {
  Rng rng(1);
  // The Fig. 7 sensitivity argument relies on this ordering.
  const auto count = [&rng](BenchmarkNet n) {
    return build_benchmark(n, rng).matrix_layer_count();
  };
  EXPECT_LT(count(BenchmarkNet::kMlp1), count(BenchmarkNet::kMlp2));
  EXPECT_LT(count(BenchmarkNet::kMlp2), count(BenchmarkNet::kCnn1));
  EXPECT_LT(count(BenchmarkNet::kCnn1), count(BenchmarkNet::kCnn2));
  EXPECT_LT(count(BenchmarkNet::kCnn2), count(BenchmarkNet::kCnn3));
  EXPECT_LT(count(BenchmarkNet::kCnn3), count(BenchmarkNet::kCnn4));
}

TEST(Zoo, NamesMatchThePaper) {
  EXPECT_EQ(benchmark_name(BenchmarkNet::kMlp1), "MLP-1");
  EXPECT_EQ(benchmark_name(BenchmarkNet::kCnn4), "CNN-4 (VGG19-class)");
  EXPECT_EQ(all_benchmarks().size(), 6u);
}

TEST(Zoo, DatasetAssignment) {
  EXPECT_FALSE(uses_object_dataset(BenchmarkNet::kMlp1));
  EXPECT_FALSE(uses_object_dataset(BenchmarkNet::kCnn1));
  EXPECT_TRUE(uses_object_dataset(BenchmarkNet::kCnn2));
  EXPECT_TRUE(uses_object_dataset(BenchmarkNet::kCnn4));
}

TEST(TrainBenchmark, MatchesTheHandWrittenRecipe) {
  // The block every experiment carried before the recipe existed.
  Rng data_rng(7);
  Rng train_rng = data_rng.split();
  Rng test_rng = data_rng.split();
  const Dataset train = synthetic_digits(64, train_rng);
  const Dataset test = synthetic_digits(16, test_rng);
  Rng model_rng(0xC0FFEEull + static_cast<std::uint64_t>(BenchmarkNet::kMlp1));
  Sequential model = build_benchmark(BenchmarkNet::kMlp1, model_rng);
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 32;
  tc.lr = 1e-3;
  (void)fit(model, train, test, tc);
  std::vector<std::size_t> calib_idx;
  for (std::size_t i = 0; i < std::min<std::size_t>(48, train.size()); ++i)
    calib_idx.push_back(i);
  auto [calib, calib_labels] = train.gather(calib_idx);
  (void)calib_labels;

  auto [got_model, got_test, got_calib, got_fit] =
      train_benchmark(BenchmarkNet::kMlp1,
                      {.train_samples = 64, .test_samples = 16, .epochs = 1});
  EXPECT_EQ(bits(got_model), bits(model));
  EXPECT_EQ(got_test.images.shape(), test.images.shape());
  EXPECT_EQ(bits(got_test.images), bits(test.images));
  EXPECT_EQ(got_test.labels, test.labels);
  EXPECT_EQ(got_calib.shape(), calib.shape());
  EXPECT_EQ(bits(got_calib), bits(calib));
  EXPECT_TRUE(got_fit.has_value());
}

TEST(TrainBenchmark, ObjectNetsTrainOnTheObjectDataset) {
  const TrainedBenchmark trained =
      train_benchmark(BenchmarkNet::kCnn2,
                      {.train_samples = 8, .test_samples = 4, .epochs = 1});
  EXPECT_EQ(trained.test.images.shape(),
            (std::vector<std::size_t>{4, 3, 32, 32}));
}

TEST(TrainBenchmark, WeightCacheRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::absolute("test_zoo_weight_cache");
  fs::remove_all(dir);
  fs::create_directories(dir);
  // An empty weight_cache trains and writes no file, not even one under
  // a default name in the working directory.
  const fs::path cwd = fs::current_path();
  fs::current_path(dir);
  TrainRecipe recipe = {.train_samples = 64, .test_samples = 16, .epochs = 1};
  TrainedBenchmark plain = train_benchmark(BenchmarkNet::kMlp1, recipe);
  fs::current_path(cwd);
  EXPECT_TRUE(plain.fit.has_value());
  EXPECT_TRUE(fs::is_empty(dir));

  recipe.weight_cache = (dir / "weights.bin").string();
  TrainedBenchmark cold = train_benchmark(BenchmarkNet::kMlp1, recipe);
  EXPECT_TRUE(cold.fit.has_value());
  EXPECT_TRUE(fs::exists(recipe.weight_cache));
  TrainedBenchmark warm = train_benchmark(BenchmarkNet::kMlp1, recipe);
  EXPECT_FALSE(warm.fit.has_value());
  EXPECT_EQ(bits(warm.model), bits(cold.model));
  EXPECT_EQ(bits(cold.model), bits(plain.model));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace resipe::nn
