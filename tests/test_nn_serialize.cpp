#include "resipe/nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "resipe/common/error.hpp"
#include "resipe/nn/layers.hpp"
#include "resipe/nn/zoo.hpp"
#include "testing/mutate.hpp"

namespace resipe::nn {
namespace {

Sequential make_model(std::uint64_t seed) {
  Rng rng(seed);
  Sequential m("s");
  m.emplace<Flatten>();
  m.emplace<Dense>(16, 8, rng);
  m.emplace<ReLU>();
  m.emplace<Dense>(8, 4, rng);
  return m;
}

struct TempFile {
  std::string path;
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

std::vector<std::vector<double>> snapshot(Sequential& model) {
  std::vector<std::vector<double>> values;
  for (const Param& p : model.params()) {
    const auto data = p.value->data();
    values.emplace_back(data.begin(), data.end());
  }
  return values;
}

// Every parameter of `model` still holds the bits of `before`.
void expect_unchanged(Sequential& model,
                      const std::vector<std::vector<double>>& before) {
  const std::vector<Param> params = model.params();
  ASSERT_EQ(params.size(), before.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    const auto data = params[p].value->data();
    ASSERT_EQ(data.size(), before[p].size());
    EXPECT_EQ(0, std::memcmp(data.data(), before[p].data(),
                             data.size() * sizeof(double)))
        << "parameter " << p << " changed";
  }
}

// Byte offset of element `i` of parameter `p` in a save_weights file:
// magic, count and one size per parameter, then the parameters in order.
std::size_t value_offset(Sequential& model, std::size_t p, std::size_t i) {
  const std::vector<Param> params = model.params();
  std::size_t offset = 8 * (2 + params.size());
  for (std::size_t q = 0; q < p; ++q) offset += 8 * params[q].value->size();
  return offset + 8 * i;
}

// load_weights(model, path) throws with `what` in its message and
// leaves every parameter bit-unchanged, and weights_compatible says so
// beforehand.
void expect_rejected_unchanged(Sequential& model, const std::string& path,
                               const std::string& what) {
  EXPECT_FALSE(weights_compatible(model, path)) << what;
  const auto before = snapshot(model);
  try {
    load_weights(model, path);
    ADD_FAILURE() << "accepted a bad weight file (" << what << ")";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
  expect_unchanged(model, before);
}

TEST(Serialize, RoundTripPreservesOutputs) {
  TempFile f("test_weights_roundtrip.bin");
  Sequential a = make_model(1);
  save_weights(a, f.path);

  Sequential b = make_model(2);  // different init
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 0.1 * static_cast<double>(i);
  const Tensor ya = a.forward(x, false);
  const Tensor yb_before = b.forward(x, false);
  bool differs = false;
  for (std::size_t i = 0; i < ya.size(); ++i) {
    if (ya[i] != yb_before[i]) differs = true;
  }
  EXPECT_TRUE(differs);

  load_weights(b, f.path);
  const Tensor yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_DOUBLE_EQ(ya[i], yb[i]);
  }
}

TEST(Serialize, CompatibilityCheck) {
  TempFile f("test_weights_compat.bin");
  Sequential a = make_model(1);
  save_weights(a, f.path);
  Sequential same = make_model(3);
  EXPECT_TRUE(weights_compatible(same, f.path));

  Rng rng(4);
  Sequential other("other");
  other.emplace<Dense>(16, 9, rng);  // different layout
  EXPECT_FALSE(weights_compatible(other, f.path));
  EXPECT_THROW(load_weights(other, f.path), Error);
}

TEST(Serialize, MissingFileHandled) {
  Sequential a = make_model(1);
  EXPECT_FALSE(weights_compatible(a, "does_not_exist.bin"));
  EXPECT_THROW(load_weights(a, "does_not_exist.bin"), Error);
}

TEST(Serialize, CorruptFileRejected) {
  TempFile f("test_weights_corrupt.bin");
  {
    std::ofstream out(f.path, std::ios::binary);
    out << "this is not a weight file";
  }
  Sequential a = make_model(1);
  EXPECT_FALSE(weights_compatible(a, f.path));
  EXPECT_THROW(load_weights(a, f.path), Error);
}

TEST(Serialize, TruncatedFileRejected) {
  TempFile f("test_weights_trunc.bin");
  Sequential a = make_model(1);
  save_weights(a, f.path);
  // Chop the tail off.
  std::ifstream in(f.path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  Sequential b = make_model(2);
  EXPECT_THROW(load_weights(b, f.path), Error);
}

TEST(Serialize, TruncatedFileLeavesModelUnchanged) {
  TempFile f("test_weights_trunc_atomic.bin");
  Sequential a = make_model(1);
  save_weights(a, f.path);
  const std::string contents = read_file(f.path);
  Sequential b = make_model(2);
  // Cut inside the second parameter: the first is whole, so a reader
  // that loads in place would already have overwritten it.
  ASSERT_GE(b.params().size(), 2u);
  write_file(f.path, contents.substr(0, value_offset(b, 1, 1) + 3));
  expect_rejected_unchanged(b, f.path, "parameter 1 of 4 is incomplete");
  // Cut at a parameter boundary: the last parameter is missing.
  write_file(f.path, contents.substr(0, value_offset(b, 3, 0)));
  expect_rejected_unchanged(b, f.path, "parameter 3 of 4 is incomplete");
}

TEST(Serialize, TrailingBytesRejected) {
  TempFile f("test_weights_trailing.bin");
  Sequential a = make_model(1);
  save_weights(a, f.path);
  write_file(f.path, read_file(f.path) + "x");
  Sequential b = make_model(2);
  expect_rejected_unchanged(b, f.path, "trailing bytes");
}

TEST(Serialize, NonFiniteValuesRejectedByIndex) {
  TempFile f("test_weights_nonfinite.bin");
  Sequential a = make_model(1);
  save_weights(a, f.path);
  const std::string contents = read_file(f.path);
  Sequential b = make_model(2);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    // The last parameter's element 3: every earlier one is valid.
    std::string corrupt = contents;
    std::memcpy(corrupt.data() + value_offset(b, 3, 3), &bad, sizeof bad);
    write_file(f.path, corrupt);
    expect_rejected_unchanged(b, f.path, "parameter 3 holds");
    expect_rejected_unchanged(b, f.path, "at element 3");
  }
  // The intact file still loads.
  write_file(f.path, contents);
  load_weights(b, f.path);
  expect_unchanged(b, snapshot(a));
}

// Fixed-seed byte flips, deletions, insertions and truncations of files
// save_weights wrote: each load either throws resipe::Error, leaving
// every parameter bit-unchanged, or loads values that a re-save writes
// back as the mutated bytes.  weights_compatible agrees with the
// outcome, and any other exception type fails the test.  The tiny
// two-Dense model keeps the header a large share of the bytes.
TEST(Serialize, MutatedWeightFilesAreRejectedOrLoad) {
  constexpr int kMutationsPerModel = 300;
  Rng build_rng(5);
  Sequential tiny("tiny");
  tiny.emplace<Dense>(3, 2, build_rng);
  tiny.emplace<Dense>(2, 2, build_rng);
  Sequential mlp1 = build_benchmark(BenchmarkNet::kMlp1, build_rng);

  TempFile f("test_weights_mutated.bin");
  TempFile resaved("test_weights_resaved.bin");
  const std::string inserts = {'\0', '\x01', '\x7f', '\x80', '\xff'};
  Rng rng(0x3E16A7);
  std::size_t accepted = 0, rejected = 0;
  for (Sequential* model : {&tiny, &mlp1}) {
    save_weights(*model, f.path);
    const std::string original = read_file(f.path);
    for (int m = 0; m < kMutationsPerModel; ++m) {
      const std::string bytes = testing::mutate_bytes(original, rng, inserts);
      write_file(f.path, bytes);
      const auto before = snapshot(*model);
      const bool compatible = weights_compatible(*model, f.path);
      try {
        load_weights(*model, f.path);
        EXPECT_TRUE(compatible) << model->name() << " mutation " << m;
        save_weights(*model, resaved.path);
        EXPECT_TRUE(read_file(resaved.path) == bytes)
            << model->name() << " mutation " << m << " re-saves differently";
        ++accepted;
      } catch (const Error&) {
        EXPECT_FALSE(compatible) << model->name() << " mutation " << m;
        expect_unchanged(*model, before);
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << model->name() << " mutation " << m
                      << " threw a non-resipe exception: " << e.what();
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace resipe::nn
