#include "resipe/nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "resipe/common/error.hpp"

namespace resipe::nn {

namespace {
std::size_t shape_product(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}
}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(shape_product(shape_), 0.0) {
  RESIPE_REQUIRE(!shape_.empty(), "tensor rank must be >= 1");
}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<double> data)
    : shape_(std::move(shape)), data_(data.begin(), data.end()) {
  RESIPE_REQUIRE(!shape_.empty(), "tensor rank must be >= 1");
  RESIPE_REQUIRE(data_.size() == shape_product(shape_),
                 "data size " << data_.size() << " != shape product "
                              << shape_product(shape_));
}

std::size_t Tensor::dim(std::size_t i) const {
  RESIPE_REQUIRE(i < shape_.size(), "dim index out of range");
  return shape_[i];
}

double& Tensor::at(std::size_t i, std::size_t j) {
  RESIPE_REQUIRE(rank() == 2, "rank-2 access on " << shape_str());
  RESIPE_REQUIRE(i < shape_[0] && j < shape_[1], "2-D index out of range");
  return data_[i * shape_[1] + j];
}

double Tensor::at(std::size_t i, std::size_t j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

double& Tensor::at(std::size_t n, std::size_t c, std::size_t h,
                   std::size_t w) {
  RESIPE_REQUIRE(rank() == 4, "rank-4 access on " << shape_str());
  RESIPE_REQUIRE(
      n < shape_[0] && c < shape_[1] && h < shape_[2] && w < shape_[3],
      "4-D index out of range");
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

double Tensor::at(std::size_t n, std::size_t c, std::size_t h,
                  std::size_t w) const {
  return const_cast<Tensor*>(this)->at(n, c, h, w);
}

Tensor Tensor::reshaped(std::vector<std::size_t> shape) const {
  RESIPE_REQUIRE(shape_product(shape) == size(),
                 "reshape size mismatch: " << shape_str());
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = data_;
  return t;
}

void Tensor::resize_for_overwrite(std::span<const std::size_t> shape) {
  RESIPE_REQUIRE(!shape.empty(), "tensor rank must be >= 1");
  shape_.assign(shape.begin(), shape.end());
  data_.resize(shape_product(shape_));
}

void Tensor::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::fill_normal(Rng& rng, double stddev) {
  for (double& x : data_) x = rng.normal(0.0, stddev);
}

double Tensor::abs_max() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

std::size_t Tensor::argmax_row(std::size_t i) const {
  RESIPE_REQUIRE(rank() == 2 && i < shape_[0], "argmax_row out of range");
  const std::size_t cols = shape_[1];
  std::size_t best = 0;
  for (std::size_t j = 1; j < cols; ++j) {
    if (data_[i * cols + j] > data_[i * cols + best]) best = j;
  }
  return best;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape_.size(); ++i)
    os << (i ? ", " : "") << shape_[i];
  os << "]";
  return os.str();
}

void add_inplace(Tensor& a, const Tensor& b) {
  RESIPE_REQUIRE(a.same_shape(b), "add_inplace shape mismatch: "
                                      << a.shape_str() << " vs "
                                      << b.shape_str());
  auto da = a.data();
  auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) da[i] += db[i];
}

void scale_inplace(Tensor& a, double s) {
  for (double& x : a.data()) x *= s;
}

}  // namespace resipe::nn
