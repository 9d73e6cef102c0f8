#include "resipe/resipe/fast_mvm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <type_traits>
#include <utility>

#include "resipe/common/error.hpp"
#include "resipe/perf/work_model.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::resipe_core {

namespace {

/// The voltage stage's register block: up to kBlockSamples samples by
/// kBlockVectors column vectors of accumulators.  With one conductance
/// load per column vector and one broadcast wordline voltage that is 21
/// of AVX-512's 32 registers; narrower register files spill some
/// accumulators, which costs time, never bits.
constexpr std::size_t kBlockSamples = 4;
constexpr std::size_t kBlockVectors = 4;

/// Calls f(std::integral_constant<std::size_t, k>{}) for a runtime
/// k in [1, kMax], so a register block's shape is a compile-time one.
template <std::size_t kMax, class F>
void with_count(std::size_t k, F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((k == I + 1 ? (f(std::integral_constant<std::size_t, I + 1>{}), 0)
                 : 0),
     ...);
  }(std::make_index_sequence<kMax>{});
}

/// S1, the GD ramp: the wordline voltage of each spike time, one lane
/// each, so `v` may be `t`.
template <class V>
void wordline_stage(const circuits::CircuitParams& p,
                    std::span<const double> t, std::span<double> v) {
  const bool linear = p.model == circuits::TransferModel::kLinear;
  const V v_s(p.v_s);
  const V zero(0.0);
  const V one(1.0);
  const V slice(p.slice_length);
  const V tau(p.tau_gd());
  simd::map_lanes<V>(t, v, [&](V t_in) {
    // Valid when 0 <= t <= slice; NaN and kNoSpike fail both compares.
    const auto valid = (t_in >= zero) & (t_in <= slice);
    // The linear ramp saturates at v_s like the real GD output
    // (CircuitParams::ramp_voltage clamps); without the clamp a fast
    // ramp (tau_gd < slice) would feed the crossbar voltages the
    // circuit cannot produce and diverge from ResipeTile.
    const V volts = linear ? simd::min(v_s * t_in / tau, v_s)
                           : v_s * (one - simd::exp(zero - t_in / tau));
    return simd::select(valid, volts, zero);
  });
}

}  // namespace

FastMvm::FastMvm(const circuits::CircuitParams& params,
                 const crossbar::Crossbar& xbar)
    : params_(params), rows_(xbar.rows()), cols_(xbar.cols()) {
  params_.validate();
  RESIPE_REQUIRE(rows_ > 0 && cols_ > 0,
                 "FastMvm requires a crossbar with rows > 0 and cols > 0");
  cols_pad_ = simd::pad_to_lanes(cols_);
  g_.assign(rows_ * cols_pad_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      g_[r * cols_pad_ + c] = xbar.effective_g(r, c);
    }
  }
  precompute();
}

FastMvm::FastMvm(const circuits::CircuitParams& params, std::size_t rows,
                 std::size_t cols, std::vector<double> g_effective)
    : params_(params), rows_(rows), cols_(cols) {
  params_.validate();
  RESIPE_REQUIRE(rows_ > 0 && cols_ > 0,
                 "FastMvm requires rows > 0 and cols > 0");
  RESIPE_REQUIRE(g_effective.size() == rows_ * cols_,
                 "conductance matrix size");
  cols_pad_ = simd::pad_to_lanes(cols_);
  g_.assign(rows_ * cols_pad_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy_n(g_effective.data() + r * cols_, cols_,
                g_.data() + r * cols_pad_);
  }
  precompute();
}

void FastMvm::precompute() {
  all_rows_.resize(rows_);
  std::iota(all_rows_.begin(), all_rows_.end(), std::uint32_t{0});
  g_total_.assign(cols_pad_, 0.0);
  // Row-ascending sums, matching ResipeTile's accumulation order.
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* g_r = g_.data() + r * cols_pad_;
    for (std::size_t c = 0; c < cols_; ++c) g_total_[c] += g_r[c];
  }
  k_.assign(cols_pad_, 0.0);
  for (std::size_t c = 0; c < cols_; ++c) {
    if (g_total_[c] <= 0.0) continue;
    const double tau = params_.c_cog / g_total_[c];
    if (params_.model == circuits::TransferModel::kLinear) {
      k_[c] = params_.comp_stage / tau;  // may exceed 1 by design
    } else {
      k_[c] = 1.0 - std::exp(-params_.comp_stage / tau);
    }
  }
  offsets_.assign(cols_pad_, 0.0);
}

void FastMvm::set_column_offsets(std::vector<double> offsets) {
  RESIPE_REQUIRE(offsets.size() == cols_,
                 "need one comparator offset per column");
  std::copy(offsets.begin(), offsets.end(), offsets_.begin());
}

void FastMvm::check_rows(std::span<const std::uint32_t> rows) const {
  // One pass without early exit, so it vectorizes; a failure rescans to
  // name the first bad entry.  Strictly ascending with the last row in
  // range puts every row in range.
  bool ok = rows.empty() || rows.back() < rows_;
  for (std::size_t i = 1; i < rows.size(); ++i) ok &= rows[i - 1] < rows[i];
  if (ok) return;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::uint32_t r = rows[i];
    RESIPE_REQUIRE(r < rows_, "FastMvm row list: row "
                                  << r << " at index " << i
                                  << " is out of range for " << rows_
                                  << " rows");
    RESIPE_REQUIRE(i == 0 || rows[i - 1] < r,
                   "FastMvm row list must be strictly ascending: row "
                       << r << " at index " << i << " follows row "
                       << rows[i - 1]);
  }
}

void FastMvm::check_voltages(std::span<const double> v_wl, std::size_t n,
                             std::size_t stride) const {
  RESIPE_REQUIRE(stride >= rows_ &&
                     (n == 0 || v_wl.size() >= (n - 1) * stride + rows_),
                 "FastMvm voltages: " << n << " samples of " << rows_
                                      << " rows at stride " << stride
                                      << " from " << v_wl.size()
                                      << " voltages");
}

// --- the voltage stage ---------------------------------------------------
//
// Every entry point is a call of S1 (wordline_stage, above) and this
// stage, each one body at two widths.  The vscalar instance is the
// reference (libm, so the scalar build and RESIPE_SIMD=scalar reproduce
// historical results exactly), and the vdouble instance differs from it
// only in its exp/log.
//
// Skipping a row is exact at either width.  A row may be left out only
// when its wordline voltage is +0.0 or -0.0 in every sample: S1 zeroes
// invalid times, and t = 0 (the encoding of input value 0) gives
// v_s * (1 - exp(-0)) = +0.0 because exp(+-0.0) == 1.0 exactly on every
// backend (see common/simd.hpp).  Its products with g >= 0 are signed
// zeros, and adding one leaves an accumulator that starts at +0.0
// bitwise unchanged, so every current sum is what the dense walk
// produces.

template <class V>
V FastMvm::recover(V weighted, std::size_t c, std::size_t* silent) const {
  const V zero(0.0);
  const V v_s(params_.v_s);
  const V tau(params_.tau_gd());
  const V delay(params_.comparator_delay);
  const V slice(params_.slice_length);
  const V no_spike(kNoSpike);
  const V g_tot = V::load(g_total_.data() + c);
  const V threshold = weighted / g_tot * V::load(k_.data() + c) +
                      V(params_.comparator_offset) +
                      V::load(offsets_.data() + c);
  V crossing;
  if (params_.model == circuits::TransferModel::kLinear) {
    crossing = threshold * tau / v_s;
  } else {
    // -tau * log(1 - th/v_s); th >= v_s makes the log argument <= 0,
    // which the select resolves to kNoSpike.
    crossing = (zero - tau) * simd::log(V(1.0) - threshold / v_s);
    crossing = simd::select(threshold >= v_s, no_spike, crossing);
  }
  crossing = simd::select(threshold <= zero, zero, crossing);
  const V t = crossing + delay;
  // An unprogrammed (or padding) column never charges: the ramp
  // crosses 0 at t = 0.
  const auto programmed = g_tot > zero;
  *silent += simd::mask_count(programmed & (t > slice));
  return simd::select(programmed, simd::select(t <= slice, t, no_spike),
                      delay);
}

template <class V, std::size_t kS, std::size_t kC>
void FastMvm::column_block(const double* v_wl, std::size_t stride,
                           std::size_t s0, std::size_t c0,
                           std::span<const std::uint32_t> rows,
                           double* t_out, std::size_t out_stride,
                           std::size_t* silent) const {
  constexpr std::size_t W = simd::lanes<V>;
  V acc[kS][kC];
  for (auto& sample : acc) {
    for (V& a : sample) a = V(0.0);
  }
  const double* v = v_wl + s0 * stride;
  for (const std::uint32_t r : rows) {
    const double* g_r = g_.data() + r * cols_pad_ + c0;
    V g[kC];
    for (std::size_t j = 0; j < kC; ++j) g[j] = V::load(g_r + j * W);
    for (std::size_t s = 0; s < kS; ++s) {
      const V v_r(v[s * stride + r]);
      for (std::size_t j = 0; j < kC; ++j) acc[s][j] = acc[s][j] + v_r * g[j];
    }
  }
  // A vector that fits the output row stores in place, a last partial
  // one of a narrower row through lanes.
  alignas(simd::kAlignment) double lane[W];
  for (std::size_t s = 0; s < kS; ++s) {
    for (std::size_t j = 0; j < kC; ++j) {
      const std::size_t c = c0 + j * W;
      double* out = t_out + (s0 + s) * out_stride + c;
      const V t = recover(acc[s][j], c, silent);
      if (c + W <= out_stride) {
        t.storeu(out);
        continue;
      }
      t.store(lane);
      std::copy(lane, lane + (cols_ - c), out);
    }
  }
}

template <class V>
void FastMvm::voltage_stage(const double* v_wl, std::size_t n,
                            std::size_t stride,
                            std::span<const std::uint32_t> rows,
                            double* t_out, std::size_t out_stride) const {
  constexpr std::size_t W = simd::lanes<V>;
  std::size_t silent = 0;
  // Column windows outermost: a window's conductances stay in cache
  // while every sample group streams through them.
  for (std::size_t c0 = 0; c0 < cols_; c0 += kBlockVectors * W) {
    const std::size_t nc =
        std::min(kBlockVectors, (cols_ - c0 + W - 1) / W);
    for (std::size_t s0 = 0; s0 < n; s0 += kBlockSamples) {
      const std::size_t ns = std::min(kBlockSamples, n - s0);
      with_count<kBlockSamples>(ns, [&](auto kS) {
        with_count<kBlockVectors>(nc, [&](auto kC) {
          column_block<V, decltype(kS)::value, decltype(kC)::value>(
              v_wl, stride, s0, c0, rows, t_out, out_stride, &silent);
        });
      });
    }
  }
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.silent_outputs", silent);
}

// --- public entry points -------------------------------------------------
//
// Each is a few lines over the two stages and books its own MACs, the
// count the work model uses; none calls another, so no span's work is
// booked twice in the call tree.

void FastMvm::mvm_times(std::span<const double> t_in,
                        std::span<double> t_out) const {
  RESIPE_TELEM_SCOPE("resipe_core.fast_mvm.mvm_times",
                     perf::fast_mvm_cost(rows_, cols_));
  RESIPE_REQUIRE(t_in.size() == rows_ && t_out.size() == cols_,
                 "FastMvm vector size mismatch");
  // One buffer per thread that calls only grow, so calls alternating
  // between tile shapes never re-zero it.
  thread_local aligned_vector v_wl;
  v_wl.resize(std::max(v_wl.size(), rows_));
  simd::at_width(simd::enabled(), [&](auto v) {
    using V = decltype(v);
    wordline_stage<V>(params_, t_in, {v_wl.data(), rows_});
    voltage_stage<V>(v_wl.data(), 1, rows_, all_rows_, t_out.data(), cols_);
  });
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.mac_ops", rows_ * cols_);
}

void FastMvm::mvm_times_batch(std::span<const double> t_in, std::size_t n,
                              std::span<double> t_out,
                              BatchScratch& scratch) const {
  RESIPE_TELEM_SCOPE("resipe_core.fast_mvm.mvm_times_batch",
                     perf::fast_mvm_batch_cost(rows_, cols_, n));
  RESIPE_REQUIRE(t_in.size() == n * rows_ && t_out.size() == n * cols_,
                 "FastMvm batch size mismatch");
  if (n == 0) return;
  scratch.v_wl.resize(n * rows_);
  simd::at_width(simd::enabled(), [&](auto v) {
    using V = decltype(v);
    wordline_stage<V>(params_, t_in, scratch.v_wl);
    voltage_stage<V>(scratch.v_wl.data(), n, rows_, all_rows_, t_out.data(),
                     cols_);
  });
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.mac_ops", n * rows_ * cols_);
}

void FastMvm::wordline(const circuits::CircuitParams& params,
                       std::span<const double> t, std::span<double> v) {
  RESIPE_TELEM_SCOPE("resipe_core.fast_mvm.wordline",
                     perf::fast_mvm_wordline_cost(t.size(), 1));
  RESIPE_REQUIRE(t.size() == v.size(), "FastMvm wordline size mismatch");
  simd::at_width(simd::enabled(), [&](auto vec) {
    wordline_stage<decltype(vec)>(params, t, v);
  });
}

void FastMvm::mvm_voltages_batch(std::span<const double> v_wl, std::size_t n,
                                 std::size_t stride,
                                 std::span<const std::uint32_t> rows,
                                 std::span<double> t_out,
                                 std::size_t out_stride) const {
  RESIPE_TELEM_SCOPE("resipe_core.fast_mvm.mvm_voltages_batch",
                     perf::fast_mvm_voltages_cost(rows.size(), cols_, n));
  check_voltages(v_wl, n, stride);
  RESIPE_REQUIRE(out_stride >= cols_ && t_out.size() == n * out_stride,
                 "FastMvm voltage batch: " << t_out.size() << " outputs for "
                                           << n << " samples of " << cols_
                                           << " columns at stride "
                                           << out_stride);
  check_rows(rows);
  if (n == 0) return;
  simd::at_width(simd::enabled(), [&](auto v) {
    voltage_stage<decltype(v)>(v_wl.data(), n, stride, rows, t_out.data(),
                               out_stride);
  });
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.mac_ops", n * rows.size() * cols_);
}

void FastMvm::driven_rows(std::span<const double> v_wl, std::size_t n,
                          std::size_t stride,
                          std::vector<std::uint32_t>& rows) const {
  RESIPE_TELEM_WORK("resipe_core.fast_mvm.driven_rows",
                    perf::fast_mvm_driven_rows_cost(rows_, n));
  check_voltages(v_wl, n, stride);
  // Flag the rows driven in some sample, sample by sample so the inner
  // loop runs along contiguous voltages, then compact the flags into
  // row indices in place (an index never passes the flag it reads).
  rows.assign(rows_, 0);
  for (std::size_t s = 0; s < n; ++s) {
    const double* v = v_wl.data() + s * stride;
    for (std::size_t r = 0; r < rows_; ++r) rows[r] |= v[r] != 0.0;
  }
  std::size_t listed = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    if (rows[r] != 0) rows[listed++] = static_cast<std::uint32_t>(r);
  }
  rows.resize(listed);
}

void FastMvm::add_current_sums(std::span<const double> t_out, std::size_t n,
                               std::span<const std::size_t> slot_of_col,
                               std::span<double> rec, std::size_t rec_stride,
                               std::size_t cols) const {
  const std::size_t t_stride = cols_pad_;
  const std::size_t width = simd::pad_to_lanes(cols);
  const auto holds = [n](std::size_t size, std::size_t stride,
                         std::size_t row) {
    return n == 0 || size >= (n - 1) * stride + row;
  };
  bool slots_ok = slot_of_col.empty() || slot_of_col.size() == cols;
  for (const std::size_t slot : slot_of_col) slots_ok &= slot < cols_;
  RESIPE_REQUIRE(cols <= cols_ && slots_ok && rec_stride >= width &&
                     holds(t_out.size(), t_stride, t_stride) &&
                     holds(rec.size(), rec_stride, width),
                 "FastMvm current sums: "
                     << n << " samples of " << cols << " columns ("
                     << slot_of_col.size() << " mapped, " << cols_
                     << " slots) from " << t_out.size() << " times into "
                     << rec.size() << " sums at stride " << rec_stride);
  const bool linear = params_.model == circuits::TransferModel::kLinear;
  simd::at_width(simd::enabled(), [&](auto vec) {
    using V = decltype(vec);
    constexpr std::size_t W = simd::lanes<V>;
    const V zero(0.0);
    const V one(1.0);
    const V v_s(params_.v_s);
    const V tau(params_.tau_gd());
    const V slice(params_.slice_length);
    const V no_spike(kNoSpike);
    // CircuitParams::ramp_voltage, then the trim.  A silent output line
    // encodes "beyond full scale": the readout books the slice-boundary
    // value.
    const auto add = [&](V t, V g_tot, V k, V r) {
      t = simd::select(t >= no_spike, slice, t);
      V v = linear ? v_s * t / tau : v_s * (one - simd::exp(zero - t / tau));
      v = simd::min(simd::max(v, zero), v_s);
      return simd::select(k > zero, r + v * g_tot / k, r);
    };
    // Column vectors outermost, so each one's trim loads once per batch.
    if (slot_of_col.empty()) {
      // Whole vectors in place, the last one too: its lanes past `cols`
      // read padded slots or spares and land in the row's own padding.
      for (std::size_t c = 0; c < cols; c += W) {
        const V g_tot = V::load(g_total_.data() + c);
        const V k = V::load(k_.data() + c);
        for (std::size_t s = 0; s < n; ++s) {
          double* r = rec.data() + s * rec_stride + c;
          add(V::loadu(t_out.data() + s * t_stride + c), g_tot, k,
              V::loadu(r))
              .storeu(r);
        }
      }
      return;
    }
    // A remapped block gathers t, g_total and k through slot_of_col and
    // stages every vector; padding lanes have k = 0 and are not copied
    // back.
    for (std::size_t c = 0; c < cols; c += W) {
      const std::size_t m = std::min(W, cols - c);
      alignas(simd::kAlignment) double lane[4][W] = {};
      for (std::size_t j = 0; j < m; ++j) {
        lane[1][j] = g_total_[slot_of_col[c + j]];
        lane[2][j] = k_[slot_of_col[c + j]];
      }
      const V g_tot = V::load(lane[1]);
      const V k = V::load(lane[2]);
      for (std::size_t s = 0; s < n; ++s) {
        const double* t = t_out.data() + s * t_stride;
        double* r = rec.data() + s * rec_stride + c;
        for (std::size_t j = 0; j < m; ++j) {
          lane[0][j] = t[slot_of_col[c + j]];
          lane[3][j] = r[j];
        }
        add(V::load(lane[0]), g_tot, k, V::load(lane[3])).store(lane[3]);
        std::copy(lane[3], lane[3] + m, r);
      }
    }
  });
}

void FastMvm::ideal_times(std::span<const double> t_in,
                          std::span<double> t_out) const {
  RESIPE_REQUIRE(t_in.size() == rows_ && t_out.size() == cols_,
                 "FastMvm vector size mismatch");
  // Row-ascending per column, summed in t_out itself.
  std::fill(t_out.begin(), t_out.end(), 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double t = t_in[r];
    if (!(t >= 0.0) || t == kNoSpike) continue;
    const double* g_r = g_.data() + r * cols_pad_;
    for (std::size_t c = 0; c < cols_; ++c) t_out[c] += t * g_r[c];
  }
  const double gain = params_.linear_gain();
  for (double& t : t_out) t = gain * t;
}

}  // namespace resipe::resipe_core
