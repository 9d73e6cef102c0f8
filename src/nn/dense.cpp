#include <algorithm>
#include <cmath>
#include <sstream>

#include "image_chunks.hpp"
#include "resipe/common/error.hpp"
#include "resipe/nn/layers.hpp"

namespace resipe::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_({in_features, out_features}),
      b_({1, out_features}),
      gw_({in_features, out_features}),
      gb_({1, out_features}) {
  RESIPE_REQUIRE(in_features > 0 && out_features > 0, "empty dense layer");
  // He initialization — the nets use ReLU activations.
  w_.fill_normal(rng, std::sqrt(2.0 / static_cast<double>(in_features)));
}

Tensor Dense::forward(const Tensor& x, bool train) {
  RESIPE_REQUIRE(x.rank() == 2 && x.dim(1) == in_,
                 "dense input shape " << x.shape_str() << ", expected [N, "
                                      << in_ << "]");
  if (train) cached_x_ = x;
  const std::size_t n = x.dim(0);
  Tensor y({n, out_});
  const double* xd = x.data().data();
  const double* wd = w_.data().data();
  const double* bd = b_.data().data();
  double* yd = y.data().data();
  // Each output starts at the bias and adds x_k * w_kj for k ascending,
  // skipping the inputs that are exactly zero.
  const auto affine = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      double* yr = yd + i * out_;
      std::copy_n(bd, out_, yr);
      for (std::size_t k = 0; k < in_; ++k) {
        const double xv = xd[i * in_ + k];
        if (xv == 0.0) continue;
        const double* wr = wd + k * out_;
        for (std::size_t j = 0; j < out_; ++j) yr[j] += xv * wr[j];
      }
    }
  };
  // A training pass stays on the caller, like the rest of training.
  if (train) {
    affine(0, n);
  } else {
    detail::for_image_chunks(n, in_ * out_, affine);
  }
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  RESIPE_REQUIRE(cached_x_.size() > 0, "backward before forward(train)");
  RESIPE_REQUIRE(grad_out.rank() == 2 && grad_out.dim(1) == out_,
                 "dense grad shape mismatch");
  const std::size_t n = grad_out.dim(0);
  RESIPE_REQUIRE(cached_x_.dim(0) == n, "batch size changed between passes");

  // dW = x^T g ; db = sum_i g ; dx = g W^T
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out_; ++j) {
      const double g = grad_out.at(i, j);
      if (g == 0.0) continue;
      gb_.at(0, j) += g;
      for (std::size_t k = 0; k < in_; ++k)
        gw_.at(k, j) += cached_x_.at(i, k) * g;
    }
  }
  Tensor gx({n, in_});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out_; ++j) {
      const double g = grad_out.at(i, j);
      if (g == 0.0) continue;
      for (std::size_t k = 0; k < in_; ++k) gx.at(i, k) += g * w_.at(k, j);
    }
  }
  return gx;
}

std::vector<Param> Dense::params() {
  return {Param{&w_, &gw_}, Param{&b_, &gb_}};
}

std::string Dense::describe() const {
  std::ostringstream os;
  os << "Dense(" << in_ << " -> " << out_ << ")";
  return os.str();
}

}  // namespace resipe::nn
