#include <limits>
#include <sstream>

#include "image_chunks.hpp"
#include "resipe/common/error.hpp"
#include "resipe/nn/layers.hpp"

namespace resipe::nn {

MaxPool2d::MaxPool2d(std::size_t k) : k_(k) {
  RESIPE_REQUIRE(k >= 1, "pool window must be >= 1");
}

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  Tensor y;
  run(x, y, train);
  return y;
}

void MaxPool2d::forward_into(const Tensor& x, Tensor& y) { run(x, y, false); }

void MaxPool2d::run(const Tensor& x, Tensor& y, bool train) {
  RESIPE_REQUIRE(x.rank() == 4, "pool input must be rank 4");
  const std::size_t n = x.dim(0);
  const std::size_t ch = x.dim(1);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  RESIPE_REQUIRE(h % k_ == 0 && w % k_ == 0,
                 "pool window " << k_ << " must divide " << h << "x" << w);
  const std::size_t oh = h / k_;
  const std::size_t ow = w / k_;
  y.resize_for_overwrite({n, ch, oh, ow});
  if (train) {
    cached_x_ = x;
    argmax_.assign(y.size(), 0);
  }
  const double* xd = x.data().data();
  double* yd = y.data().data();
  std::size_t* argmax = train ? argmax_.data() : nullptr;
  // Row-major window scan with a strict >: the first maximum wins, and
  // a window of NaN or -inf keeps -inf and flat index 0.
  const auto pool = [&](std::size_t b, std::size_t e) {
    for (std::size_t p = b * ch; p < e * ch; ++p) {
      const std::size_t in0 = p * h * w;
      const std::size_t out0 = p * oh * ow;
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t col = 0; col < ow; ++col) {
          double best = -std::numeric_limits<double>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t kr = 0; kr < k_; ++kr) {
            const std::size_t row = in0 + (r * k_ + kr) * w + col * k_;
            for (std::size_t kc = 0; kc < k_; ++kc) {
              if (xd[row + kc] > best) {
                best = xd[row + kc];
                best_idx = row + kc;
              }
            }
          }
          yd[out0 + r * ow + col] = best;
          if (argmax != nullptr) argmax[out0 + r * ow + col] = best_idx;
        }
      }
    }
  };
  // A training pass writes argmax_ and stays on the caller, like the
  // rest of training.
  if (train) {
    pool(0, n);
  } else {
    detail::for_image_chunks(n, ch * h * w, pool);
  }
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  RESIPE_REQUIRE(cached_x_.size() > 0, "backward before forward(train)");
  RESIPE_REQUIRE(grad_out.size() == argmax_.size(),
                 "pool grad size mismatch");
  Tensor gx(cached_x_.shape());
  for (std::size_t i = 0; i < grad_out.size(); ++i)
    gx[argmax_[i]] += grad_out[i];
  return gx;
}

std::string MaxPool2d::describe() const {
  std::ostringstream os;
  os << "MaxPool2d(" << k_ << ")";
  return os.str();
}

AvgPool2d::AvgPool2d(std::size_t k) : k_(k) {
  RESIPE_REQUIRE(k >= 1, "pool window must be >= 1");
}

Tensor AvgPool2d::forward(const Tensor& x, bool train) {
  RESIPE_REQUIRE(x.rank() == 4, "pool input must be rank 4");
  const std::size_t n = x.dim(0);
  const std::size_t ch = x.dim(1);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  RESIPE_REQUIRE(h % k_ == 0 && w % k_ == 0,
                 "pool window " << k_ << " must divide " << h << "x" << w);
  if (train) in_shape_ = x.shape();
  const std::size_t oh = h / k_;
  const std::size_t ow = w / k_;
  const double inv = 1.0 / static_cast<double>(k_ * k_);
  Tensor y({n, ch, oh, ow});
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t c = 0; c < ch; ++c) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t col = 0; col < ow; ++col) {
          double acc = 0.0;
          for (std::size_t kr = 0; kr < k_; ++kr)
            for (std::size_t kc = 0; kc < k_; ++kc)
              acc += x.at(img, c, r * k_ + kr, col * k_ + kc);
          y.at(img, c, r, col) = acc * inv;
        }
      }
    }
  }
  return y;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  RESIPE_REQUIRE(!in_shape_.empty(), "backward before forward(train)");
  Tensor gx(in_shape_);
  const std::size_t n = in_shape_[0];
  const std::size_t ch = in_shape_[1];
  const double inv = 1.0 / static_cast<double>(k_ * k_);
  const std::size_t oh = grad_out.dim(2);
  const std::size_t ow = grad_out.dim(3);
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t c = 0; c < ch; ++c) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t col = 0; col < ow; ++col) {
          const double g = grad_out.at(img, c, r, col) * inv;
          for (std::size_t kr = 0; kr < k_; ++kr)
            for (std::size_t kc = 0; kc < k_; ++kc)
              gx.at(img, c, r * k_ + kr, col * k_ + kc) += g;
        }
      }
    }
  }
  return gx;
}

std::string AvgPool2d::describe() const {
  std::ostringstream os;
  os << "AvgPool2d(" << k_ << ")";
  return os.str();
}

}  // namespace resipe::nn
