// Dense N-dimensional tensor used by the neural-network substrate.
//
// Row-major `double` storage; ranks used in practice are 2 ([N, D] for
// dense layers) and 4 ([N, C, H, W] for convolutional layers).  The
// evaluation networks are small (the accuracy experiment maps them
// through a circuit simulator, which dominates runtime), so clarity
// beats BLAS here.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "resipe/common/rng.hpp"

namespace resipe::nn {

namespace detail {

/// std::allocator whose value-construction default-initializes, so a
/// vector of doubles grown by resize() leaves its new elements
/// uninitialized for a caller that writes every one.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace detail

/// Row-major dense tensor of doubles.
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<std::size_t> shape);

  /// Tensor with explicit data (size must match the shape product).
  Tensor(std::vector<std::size_t> shape, std::vector<double> data);

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size() const { return data_.size(); }
  std::size_t dim(std::size_t i) const;

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  double& operator[](std::size_t flat) { return data_[flat]; }
  double operator[](std::size_t flat) const { return data_[flat]; }

  /// 2-D access: (row, col) on a rank-2 tensor.
  double& at(std::size_t i, std::size_t j);
  double at(std::size_t i, std::size_t j) const;

  /// 4-D access: (n, c, h, w) on a rank-4 tensor.
  double& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
  double at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const;

  /// Returns a copy with a new shape of identical total size.
  Tensor reshaped(std::vector<std::size_t> shape) const;

  /// Gives the tensor `shape` for a caller that then writes every
  /// element: the storage keeps its capacity, which only grows, and
  /// leaves new elements uninitialized, so a buffer reused across calls
  /// neither reallocates nor zero-fills once it has reached its largest
  /// shape.
  void resize_for_overwrite(std::span<const std::size_t> shape);
  void resize_for_overwrite(std::initializer_list<std::size_t> shape) {
    resize_for_overwrite(std::span<const std::size_t>(shape.begin(),
                                                      shape.size()));
  }

  /// Fills with a constant.
  void fill(double v);

  /// Fills i.i.d. N(0, stddev).
  void fill_normal(Rng& rng, double stddev);

  /// Largest absolute element (0 for an empty tensor).
  double abs_max() const;

  /// Index of the maximum element in row `i` of a rank-2 tensor —
  /// the classifier's argmax.
  std::size_t argmax_row(std::size_t i) const;

  /// Human-readable shape like "[32, 1, 28, 28]".
  std::string shape_str() const;

  /// True when shapes are identical.
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  std::vector<std::size_t> shape_;
  std::vector<double, detail::DefaultInitAllocator<double>> data_;
};

/// Elementwise a += b (shapes must match).
void add_inplace(Tensor& a, const Tensor& b);

/// Elementwise a *= s.
void scale_inplace(Tensor& a, double s);

}  // namespace resipe::nn
