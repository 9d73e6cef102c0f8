#include <sstream>
#include "image_chunks.hpp"
#include "resipe/common/error.hpp"
#include "resipe/nn/layers.hpp"

namespace resipe::nn {

Tensor ReLU::forward(const Tensor& x, bool train) {
  if (train) cached_x_ = x;
  if (x.size() == 0) return x;
  Tensor y(x.shape());
  const std::size_t per_image = x.size() / x.dim(0);
  const double* xd = x.data().data();
  double* yd = y.data().data();
  const auto clamp = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b * per_image; i < e * per_image; ++i) {
      yd[i] = xd[i] > 0.0 ? xd[i] : 0.0;
    }
  };
  // A training pass stays on the caller, like the rest of training.
  if (train) {
    clamp(0, x.dim(0));
  } else {
    detail::for_image_chunks(x.dim(0), per_image, clamp);
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  RESIPE_REQUIRE(cached_x_.size() > 0, "backward before forward(train)");
  RESIPE_REQUIRE(grad_out.same_shape(cached_x_), "relu grad shape mismatch");
  Tensor gx = grad_out;
  auto gd = gx.data();
  auto xd = cached_x_.data();
  for (std::size_t i = 0; i < gd.size(); ++i) {
    if (xd[i] <= 0.0) gd[i] = 0.0;
  }
  return gx;
}

std::string ReLU::describe() const { return "ReLU"; }

Dropout::Dropout(double rate, std::uint64_t seed)
    : rate_(rate), rng_(seed) {
  RESIPE_REQUIRE(rate >= 0.0 && rate < 1.0, "dropout rate out of [0, 1)");
}

Tensor Dropout::forward(const Tensor& x, bool train) {
  if (!train || rate_ == 0.0) {
    // Eval-mode forwards run concurrently on a shared model; only a
    // training pass (always single-threaded) may touch layer state.
    if (train) mask_.clear();
    return x;
  }
  Tensor y = x;
  mask_.assign(x.size(), 0.0);
  const double keep = 1.0 - rate_;
  auto yd = y.data();
  for (std::size_t i = 0; i < yd.size(); ++i) {
    // Inverted dropout keeps the expected activation unchanged.
    mask_[i] = rng_.bernoulli(keep) ? 1.0 / keep : 0.0;
    yd[i] *= mask_[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  RESIPE_REQUIRE(!mask_.empty(), "backward before forward(train)");
  RESIPE_REQUIRE(grad_out.size() == mask_.size(),
                 "dropout grad size mismatch");
  Tensor gx = grad_out;
  auto gd = gx.data();
  for (std::size_t i = 0; i < gd.size(); ++i) gd[i] *= mask_[i];
  return gx;
}

std::string Dropout::describe() const {
  std::ostringstream os;
  os << "Dropout(" << rate_ << ")";
  return os.str();
}

Tensor Flatten::forward(const Tensor& x, bool train) {
  // Only the training pass records the input shape (backward's only
  // consumer): eval-mode forwards run concurrently on a shared model
  // and must not write layer state.
  if (train) in_shape_ = x.shape();
  const std::size_t n = x.dim(0);
  return x.reshaped({n, x.size() / n});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  RESIPE_REQUIRE(!in_shape_.empty(), "backward before forward");
  return grad_out.reshaped(in_shape_);
}

std::string Flatten::describe() const { return "Flatten"; }

}  // namespace resipe::nn
