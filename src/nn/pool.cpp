#include <algorithm>
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
  // A training pass records argmax_ in a row-major window scan with a
  // strict >: the first maximum wins, and a window of NaN or -inf keeps
  // -inf and flat index 0.  It stays on the caller, like the rest of
  // training.
  if (train) {
    for (std::size_t p = 0; p < n * ch; ++p) {
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
          argmax_[out0 + r * ow + col] = best_idx;
        }
      }
    }
    return;
  }
  // Eval: the same fold without the index, a row of maxima at a time so
  // it vectorizes across output columns.  Each window position, in the
  // same row-major order, replaces a maximum only when strictly greater,
  // so every value keeps the training pass's bits: the first maximum
  // wins, NaN never wins, and a window of NaN or -inf gives -inf.
  detail::for_image_chunks(n, ch * h * w, [&](std::size_t b, std::size_t e) {
    for (std::size_t p = b * ch; p < e * ch; ++p) {
      const double* in = xd + p * h * w;
      double* out = yd + p * oh * ow;
      for (std::size_t r = 0; r < oh; ++r, out += ow) {
        std::fill_n(out, ow, -std::numeric_limits<double>::infinity());
        for (std::size_t kr = 0; kr < k_; ++kr) {
          const double* row = in + (r * k_ + kr) * w;
          for (std::size_t kc = 0; kc < k_; ++kc) {
            for (std::size_t col = 0; col < ow; ++col) {
              const double v = row[col * k_ + kc];
              out[col] = v > out[col] ? v : out[col];
            }
          }
        }
      }
    }
  });
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

}  // namespace resipe::nn
