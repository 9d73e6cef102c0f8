#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "image_chunks.hpp"
#include "resipe/common/error.hpp"
#include "resipe/nn/layers.hpp"

namespace resipe::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      w_({out_channels, in_channels, kernel, kernel}),
      b_({1, out_channels}),
      gw_({out_channels, in_channels, kernel, kernel}),
      gb_({1, out_channels}) {
  RESIPE_REQUIRE(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                     stride > 0,
                 "invalid conv parameters");
  const double fan_in =
      static_cast<double>(in_channels) * static_cast<double>(kernel * kernel);
  w_.fill_normal(rng, std::sqrt(2.0 / fan_in));
}

std::size_t Conv2d::out_size(std::size_t in) const {
  RESIPE_REQUIRE(in + 2 * pad_ >= k_, "conv input smaller than kernel");
  return (in + 2 * pad_ - k_) / stride_ + 1;
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  Tensor y;
  run(x, y, train);
  if (train) cached_x_ = x;
  return y;
}

void Conv2d::forward_into(const Tensor& x, Tensor& y) { run(x, y, false); }

void Conv2d::run(const Tensor& x, Tensor& y, bool train) const {
  RESIPE_REQUIRE(x.rank() == 4 && x.dim(1) == cin_,
                 "conv input shape " << x.shape_str());
  const std::size_t n = x.dim(0);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = out_size(h);
  const std::size_t ow = out_size(w);
  y.resize_for_overwrite({n, cout_, oh, ow});
  // Output columns [lo, hi) read input column c * stride + kc - pad
  // inside the image; the rest read padding.
  std::vector<std::size_t> lo(k_), hi(k_);
  for (std::size_t kc = 0; kc < k_; ++kc) {
    hi[kc] = w + pad_ > kc
                 ? std::min(ow, (w + pad_ - kc + stride_ - 1) / stride_)
                 : 0;
    lo[kc] = std::min(hi[kc],
                      kc >= pad_ ? 0 : (pad_ - kc + stride_ - 1) / stride_);
  }
  const double* xd = x.data().data();
  const double* wd = w_.data().data();
  const double* bd = b_.data().data();
  double* yd = y.data().data();
  // One output row (img, oc, r) at a time: it starts at the bias and
  // adds x * w for (ic, kr, kc) ascending.  Padding is skipped, never
  // added as 0 * w, which would turn a -0.0 sum into +0.0 and 0 * inf
  // into NaN.
  const auto convolve = [&](std::size_t b, std::size_t e) {
    for (std::size_t img = b; img < e; ++img) {
      const double* plane = xd + img * cin_ * h * w;
      for (std::size_t oc = 0; oc < cout_; ++oc) {
        const double* kernel = wd + oc * cin_ * k_ * k_;
        for (std::size_t r = 0; r < oh; ++r) {
          double* yr = yd + ((img * cout_ + oc) * oh + r) * ow;
          std::fill_n(yr, ow, bd[oc]);
          for (std::size_t ic = 0; ic < cin_; ++ic) {
            for (std::size_t kr = 0; kr < k_; ++kr) {
              // Row index in padded coordinates.
              const std::size_t pr = r * stride_ + kr;
              if (pr < pad_ || pr >= h + pad_) continue;
              const double* xr = plane + (ic * h + pr - pad_) * w;
              const double* wr = kernel + (ic * k_ + kr) * k_;
              for (std::size_t kc = 0; kc < k_; ++kc) {
                const double wv = wr[kc];
                for (std::size_t c = lo[kc]; c < hi[kc]; ++c) {
                  yr[c] += xr[c * stride_ + kc - pad_] * wv;
                }
              }
            }
          }
        }
      }
    }
  };
  // A training pass stays on the caller, like the rest of training.
  if (train) {
    convolve(0, n);
  } else {
    detail::for_image_chunks(n, cout_ * oh * ow * cin_ * k_ * k_, convolve);
  }
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  RESIPE_REQUIRE(cached_x_.size() > 0, "backward before forward(train)");
  const std::size_t n = cached_x_.dim(0);
  const std::size_t h = cached_x_.dim(2);
  const std::size_t w = cached_x_.dim(3);
  const std::size_t oh = grad_out.dim(2);
  const std::size_t ow = grad_out.dim(3);
  RESIPE_REQUIRE(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                     grad_out.dim(1) == cout_ && oh == out_size(h) &&
                     ow == out_size(w),
                 "conv grad shape mismatch " << grad_out.shape_str());

  Tensor gx({n, cin_, h, w});
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oc = 0; oc < cout_; ++oc) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          const double g = grad_out.at(img, oc, r, c);
          if (g == 0.0) continue;
          gb_.at(0, oc) += g;
          for (std::size_t ic = 0; ic < cin_; ++ic) {
            for (std::size_t kr = 0; kr < k_; ++kr) {
              const std::ptrdiff_t ir = static_cast<std::ptrdiff_t>(
                                            r * stride_ + kr) -
                                        static_cast<std::ptrdiff_t>(pad_);
              if (ir < 0 || ir >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kc = 0; kc < k_; ++kc) {
                const std::ptrdiff_t icol = static_cast<std::ptrdiff_t>(
                                                c * stride_ + kc) -
                                            static_cast<std::ptrdiff_t>(pad_);
                if (icol < 0 || icol >= static_cast<std::ptrdiff_t>(w))
                  continue;
                const auto uir = static_cast<std::size_t>(ir);
                const auto uic = static_cast<std::size_t>(icol);
                gw_.at(oc, ic, kr, kc) += cached_x_.at(img, ic, uir, uic) * g;
                gx.at(img, ic, uir, uic) += w_.at(oc, ic, kr, kc) * g;
              }
            }
          }
        }
      }
    }
  }
  return gx;
}

std::vector<Param> Conv2d::params() {
  return {Param{&w_, &gw_}, Param{&b_, &gb_}};
}

std::string Conv2d::describe() const {
  std::ostringstream os;
  os << "Conv2d(" << cin_ << " -> " << cout_ << ", k=" << k_
     << ", s=" << stride_ << ", p=" << pad_ << ")";
  return os.str();
}

}  // namespace resipe::nn
