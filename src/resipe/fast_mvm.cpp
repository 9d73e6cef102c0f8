#include "resipe/resipe/fast_mvm.hpp"

#include <algorithm>
#include <cmath>

#include "resipe/common/error.hpp"
#include "resipe/perf/work_model.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::resipe_core {

namespace {

using simd::vdouble;
constexpr std::size_t kW = simd::native_lanes;

/// Samples accumulated per matrix load in the SIMD voltage body: four
/// independent FMA chains cover the FMA latency and amortize each
/// column load 4x.
constexpr std::size_t kSampleGroup = 4;

/// Column-block footprint target for the batch tiling: a block of
/// g_cm_ this large stays resident in L2 while every sample in the
/// batch streams through it.
constexpr std::size_t kBlockBytes = 128 * 1024;

/// Prefetch distance (in doubles) ahead of the streaming matrix reads.
constexpr std::size_t kPrefetchAhead = 64;

// Row-chunk sets the two stages visit, as types so that the dense walk
// has no per-chunk indirection.  for_each calls f with the first row of
// each visited kW-row chunk, ascending.

/// Every chunk of a matrix with rows_pad (padded) rows.
struct AllChunks {
  std::size_t rows_pad;
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t r = 0; r < rows_pad; r += kW) f(r);
  }
};

/// A listed, ascending set of chunk indices; empty visits no chunk.
struct ListedChunks {
  std::span<const std::uint32_t> chunks;
  template <class F>
  void for_each(F&& f) const {
    for (const std::uint32_t ch : chunks) f(std::size_t{ch} * kW);
  }
};

/// Scratch shared by the single-sample entry points, one per thread;
/// `chunks` holds a sparse call's woken chunk indices.
struct SingleScratch : FastMvm::BatchScratch {
  std::vector<std::uint32_t> chunks;
};

SingleScratch& single_scratch() {
  thread_local SingleScratch scratch;
  return scratch;
}

/// Grows a scratch buffer to at least n elements and returns its data.
/// It never shrinks, so calls alternating between tile shapes do not
/// re-zero it.
double* grown(FastMvm::aligned_vector& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

}  // namespace

FastMvm::FastMvm(const circuits::CircuitParams& params,
                 const crossbar::Crossbar& xbar)
    : params_(params), rows_(xbar.rows()), cols_(xbar.cols()) {
  params_.validate();
  RESIPE_REQUIRE(rows_ > 0 && cols_ > 0,
                 "FastMvm requires a crossbar with rows > 0 and cols > 0");
  rows_pad_ = simd::pad_to_lanes(rows_);
  g_cm_.assign(cols_ * rows_pad_, 0.0);
  for (std::size_t c = 0; c < cols_; ++c) {
    for (std::size_t r = 0; r < rows_; ++r) {
      g_cm_[c * rows_pad_ + r] = xbar.effective_g(r, c);
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
  rows_pad_ = simd::pad_to_lanes(rows_);
  g_cm_.assign(cols_ * rows_pad_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      g_cm_[c * rows_pad_ + r] = g_effective[r * cols_ + c];
    }
  }
  precompute();
}

void FastMvm::precompute() {
  cols_pad_ = simd::pad_to_lanes(cols_);
  g_total_.assign(cols_pad_, 0.0);
  for (std::size_t c = 0; c < cols_; ++c) {
    const double* gc = g_cm_.data() + c * rows_pad_;
    // Row-ascending sum, matching ResipeTile's accumulation order.
    for (std::size_t r = 0; r < rows_; ++r) g_total_[c] += gc[r];
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
  // Column blocks for the batched kernel: whole multiples of the
  // vector width sized so a block of g_cm_ fits the L2 target.
  std::size_t cb = kBlockBytes / (rows_pad_ * sizeof(double));
  cb = cb / kW * kW;
  block_cols_ = std::clamp<std::size_t>(cb, kW, cols_pad_);
}

void FastMvm::set_column_offsets(std::vector<double> offsets) {
  RESIPE_REQUIRE(offsets.size() == cols_,
                 "need one comparator offset per column");
  std::copy(offsets.begin(), offsets.end(), offsets_.begin());
  has_offsets_ = true;
}

// --- S2 per kernel path --------------------------------------------------

double FastMvm::recover_time(double weighted, std::size_t col,
                             std::size_t* silent) const {
  // An unprogrammed column never charges: the ramp crosses 0 at t=0.
  if (g_total_[col] <= 0.0) return params_.comparator_delay;
  const double tau_gd = params_.tau_gd();
  const double v_s = params_.v_s;
  const bool linear = params_.model == circuits::TransferModel::kLinear;
  const double v_eq = weighted / g_total_[col];
  const double v_cog = v_eq * k_[col];
  double threshold = v_cog + params_.comparator_offset;
  if (has_offsets_) threshold += offsets_[col];
  double crossing;
  if (threshold <= 0.0) {
    crossing = 0.0;
  } else if (linear) {
    crossing = threshold * tau_gd / v_s;
  } else if (threshold >= v_s) {
    crossing = kNoSpike;
  } else {
    crossing = -tau_gd * std::log(1.0 - threshold / v_s);
  }
  const double t = crossing + params_.comparator_delay;
  if (t <= params_.slice_length) return t;
  ++*silent;
  return kNoSpike;
}

void FastMvm::recover_block_simd(const double* w, std::size_t c, double* out,
                                 std::size_t* silent) const {
  const double tau_gd = params_.tau_gd();
  const vdouble v_s(params_.v_s);
  const vdouble zero(0.0);
  const vdouble delay(params_.comparator_delay);
  const vdouble slice(params_.slice_length);
  const vdouble no_spike(kNoSpike);
  const bool linear = params_.model == circuits::TransferModel::kLinear;

  const vdouble weighted = vdouble::load(w);
  const vdouble g_tot = vdouble::load(g_total_.data() + c);
  const vdouble k = vdouble::load(k_.data() + c);
  const vdouble off = vdouble::load(offsets_.data() + c);

  const vdouble v_cog = weighted / g_tot * k;
  const vdouble threshold =
      v_cog + vdouble(params_.comparator_offset) + off;

  vdouble crossing;
  if (linear) {
    crossing = threshold * vdouble(tau_gd) / v_s;
  } else {
    // -tau * log(1 - th/v_s); th >= v_s makes the log argument <= 0,
    // which the explicit select below resolves to kNoSpike.
    crossing =
        (zero - vdouble(tau_gd)) * simd::log(vdouble(1.0) - threshold / v_s);
    crossing = simd::select(threshold >= v_s, no_spike, crossing);
  }
  crossing = simd::select(threshold <= zero, zero, crossing);

  const vdouble t = crossing + delay;
  const auto programmed = g_tot > zero;
  const auto in_slice = t <= slice;
  vdouble result = simd::select(in_slice, t, no_spike);
  // Unprogrammed (and padding) columns never charge: crossing at t=0.
  result = simd::select(programmed, result, delay);
  result.store(out);

  // Silent outputs: programmed columns whose spike fell past the slice.
  const auto silent_mask = programmed & (t > slice);
  *silent += simd::mask_count(silent_mask);
}

// --- the two stages ------------------------------------------------------
//
// Every entry point is a call of these two stages.  The scalar bodies
// are the reference: row-ascending sums and libm, so the scalar build
// and RESIPE_SIMD=scalar reproduce historical results exactly, and the
// verify harness measures the SIMD bodies against them.
//
// Visiting only some row chunks is exact on both paths.  A silent row's
// wordline voltage is exactly +0.0: invalid times are zeroed by the
// validity test, and t = 0 (the encoding of input value 0) gives
// v_s * (1 - exp(-0)) = +0.0 because exp(+-0.0) == 1.0 exactly on every
// backend (see common/simd.hpp).  Adding +0.0 (scalar) or
// fma(g, 0, acc) (SIMD) leaves a non-negative accumulator bitwise
// unchanged, so a skipped row — outside the visited chunks, or silent
// inside one — preserves every partial sum the dense walk produces.
// Chunks are never compacted into fewer lanes, which would re-shape
// the fixed FMA/reduction tree and change the rounding.

template <class Chunks>
void FastMvm::wordline_stage(const double* t_in, std::size_t n, bool vector,
                             const Chunks& chunks, double* v_wl) const {
  const bool linear = params_.model == circuits::TransferModel::kLinear;
  if (!vector) {
    const double tau_gd = params_.tau_gd();
    const double v_s = params_.v_s;
    for (std::size_t s = 0; s < n; ++s) {
      const double* t_s = t_in + s * rows_;
      double* v = v_wl + s * rows_pad_;
      chunks.for_each([&](std::size_t r0) {
        const std::size_t r_end = std::min(r0 + kW, rows_);
        for (std::size_t r = r0; r < r_end; ++r) {
          const double t = t_s[r];
          if (!(t >= 0.0) || t == kNoSpike || t > params_.slice_length) {
            v[r] = 0.0;
            continue;
          }
          // The linear ramp saturates at v_s like the real GD output
          // (CircuitParams::ramp_voltage clamps); without the clamp a
          // fast ramp (tau_gd < slice) would feed the crossbar voltages
          // the circuit cannot produce and diverge from ResipeTile.
          v[r] = linear ? std::min(v_s * t / tau_gd, v_s)
                        : v_s * (1.0 - std::exp(-t / tau_gd));
        }
        std::fill(v + r_end, v + r0 + kW, 0.0);  // padding rows
      });
    }
    return;
  }
  const vdouble v_s(params_.v_s);
  const vdouble zero(0.0);
  const vdouble one(1.0);
  const vdouble slice(params_.slice_length);
  const vdouble tau(params_.tau_gd());
  for (std::size_t s = 0; s < n; ++s) {
    const double* t_s = t_in + s * rows_;
    double* v = v_wl + s * rows_pad_;
    chunks.for_each([&](std::size_t r) {
      vdouble t;
      if (r + kW <= rows_) {
        t = vdouble::loadu(t_s + r);
      } else {
        // The last, partial chunk: its padding lanes carry kNoSpike.
        alignas(simd::kAlignment) double lane[kW];
        std::fill(lane, lane + kW, kNoSpike);
        std::copy(t_s + r, t_s + rows_, lane);
        t = vdouble::load(lane);
      }
      // Valid when 0 <= t <= slice; NaN and kNoSpike fail both compares.
      const auto valid = (t >= zero) & (t <= slice);
      const vdouble volts = linear
                                ? simd::min(v_s * t / tau, v_s)
                                : v_s * (one - simd::exp(zero - t / tau));
      simd::select(valid, volts, zero).store(v + r);
    });
  }
}

template <class Chunks>
void FastMvm::voltage_stage(const double* v_wl, std::size_t n, bool vector,
                            const Chunks& chunks, double* t_out,
                            BatchScratch& scratch) const {
  std::size_t silent = 0;
  if (!vector) {
    // Column-outer so each column's weights are loaded once and its
    // current sum + recovery chain runs across the samples.
    for (std::size_t c = 0; c < cols_; ++c) {
      const double* gc = g_cm_.data() + c * rows_pad_;
      for (std::size_t s = 0; s < n; ++s) {
        const double* v = v_wl + s * rows_pad_;
        double weighted = 0.0;
        chunks.for_each([&](std::size_t r0) {
          const std::size_t r_end = std::min(r0 + kW, rows_);
          for (std::size_t r = r0; r < r_end; ++r) weighted += v[r] * gc[r];
        });
        t_out[s * cols_ + c] = recover_time(weighted, c, &silent);
      }
    }
    RESIPE_TELEM_COUNT("resipe_core.fast_mvm.silent_outputs", silent);
    return;
  }
  double* const w = grown(scratch.weighted, kSampleGroup * cols_pad_);
  double* const t_cols = grown(scratch.t_cols, n * cols_pad_);

  // Column-block outer loop: a block of g_cm_ stays L2-resident while
  // the whole batch streams through it.
  for (std::size_t c0 = 0; c0 < cols_; c0 += block_cols_) {
    const std::size_t c_end = std::min(c0 + block_cols_, cols_);
    // Recovery chunks must cover full vector widths; blocks start at
    // multiples of kW, so only the last block pads out.
    const std::size_t c_end_pad = (c_end == cols_) ? cols_pad_ : c_end;

    for (std::size_t s0 = 0; s0 < n; s0 += kSampleGroup) {
      const std::size_t ns = std::min(kSampleGroup, n - s0);
      const double* v0 = v_wl + s0 * rows_pad_;
      if (ns == kSampleGroup) {
        // Four samples share each matrix load.
        const double* v1 = v0 + rows_pad_;
        const double* v2 = v1 + rows_pad_;
        const double* v3 = v2 + rows_pad_;
        for (std::size_t c = c0; c < c_end; ++c) {
          const double* gc = g_cm_.data() + c * rows_pad_;
          vdouble a0(0.0), a1(0.0), a2(0.0), a3(0.0);
          chunks.for_each([&](std::size_t r) {
            simd::prefetch(gc + r + kPrefetchAhead);
            const vdouble g = vdouble::load(gc + r);
            a0 = simd::fma(vdouble::load(v0 + r), g, a0);
            a1 = simd::fma(vdouble::load(v1 + r), g, a1);
            a2 = simd::fma(vdouble::load(v2 + r), g, a2);
            a3 = simd::fma(vdouble::load(v3 + r), g, a3);
          });
          w[0 * cols_pad_ + c] = simd::reduce_add(a0);
          w[1 * cols_pad_ + c] = simd::reduce_add(a1);
          w[2 * cols_pad_ + c] = simd::reduce_add(a2);
          w[3 * cols_pad_ + c] = simd::reduce_add(a3);
        }
      } else {
        // A short group (every single-sample call): four columns share
        // each wordline load.  Per column this is the FMA sequence and
        // reduction above, so both shapes give the same bits.
        for (std::size_t j = 0; j < ns; ++j) {
          const double* v = v0 + j * rows_pad_;
          double* w_j = w + j * cols_pad_;
          std::size_t c = c0;
          for (; c + 4 <= c_end; c += 4) {
            const double* g0 = g_cm_.data() + c * rows_pad_;
            const double* g1 = g0 + rows_pad_;
            const double* g2 = g1 + rows_pad_;
            const double* g3 = g2 + rows_pad_;
            vdouble a0(0.0), a1(0.0), a2(0.0), a3(0.0);
            chunks.for_each([&](std::size_t r) {
              const vdouble vr = vdouble::load(v + r);
              a0 = simd::fma(vdouble::load(g0 + r), vr, a0);
              a1 = simd::fma(vdouble::load(g1 + r), vr, a1);
              a2 = simd::fma(vdouble::load(g2 + r), vr, a2);
              a3 = simd::fma(vdouble::load(g3 + r), vr, a3);
            });
            w_j[c + 0] = simd::reduce_add(a0);
            w_j[c + 1] = simd::reduce_add(a1);
            w_j[c + 2] = simd::reduce_add(a2);
            w_j[c + 3] = simd::reduce_add(a3);
          }
          for (; c < c_end; ++c) {
            const double* gc = g_cm_.data() + c * rows_pad_;
            vdouble acc(0.0);
            chunks.for_each([&](std::size_t r) {
              acc = simd::fma(vdouble::load(gc + r), vdouble::load(v + r),
                              acc);
            });
            w_j[c] = simd::reduce_add(acc);
          }
        }
      }

      // S2 for this (sample group x column block), contiguous per
      // sample over the padded output row.
      for (std::size_t j = 0; j < ns; ++j) {
        double* out_row = t_cols + (s0 + j) * cols_pad_;
        const double* w_row = w + j * cols_pad_;
        for (std::size_t c = c0; c < c_end_pad; c += kW) {
          recover_block_simd(w_row + c, c, out_row + c, &silent);
        }
      }
    }
  }

  for (std::size_t s = 0; s < n; ++s) {
    const double* src = t_cols + s * cols_pad_;
    std::copy(src, src + cols_, t_out + s * cols_);
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
  const bool vector = simd::enabled();
  const AllChunks all{rows_pad_};
  SingleScratch& scratch = single_scratch();
  double* v_wl = grown(scratch.v_wl, rows_pad_);
  wordline_stage(t_in.data(), 1, vector, all, v_wl);
  voltage_stage(v_wl, 1, vector, all, t_out.data(), scratch);
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
  const bool vector = simd::enabled();
  const AllChunks all{rows_pad_};
  double* v_wl = grown(scratch.v_wl, n * rows_pad_);
  wordline_stage(t_in.data(), n, vector, all, v_wl);
  voltage_stage(v_wl, n, vector, all, t_out.data(), scratch);
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.mac_ops", n * rows_ * cols_);
}

void FastMvm::wordline_batch(std::span<const double> t_in, std::size_t n,
                             aligned_vector& v_wl) const {
  RESIPE_TELEM_SCOPE("resipe_core.fast_mvm.wordline_batch",
                     perf::fast_mvm_wordline_cost(rows_, n));
  RESIPE_REQUIRE(t_in.size() == n * rows_, "FastMvm wordline size mismatch");
  v_wl.resize(n * rows_pad_);
  wordline_stage(t_in.data(), n, simd::enabled(), AllChunks{rows_pad_},
                 v_wl.data());
}

void FastMvm::mvm_voltages_batch(const aligned_vector& v_wl, std::size_t n,
                                 std::span<double> t_out,
                                 BatchScratch& scratch) const {
  RESIPE_TELEM_SCOPE("resipe_core.fast_mvm.mvm_voltages_batch",
                     perf::fast_mvm_voltages_cost(rows_, cols_, n));
  RESIPE_REQUIRE(v_wl.size() == n * rows_pad_ && t_out.size() == n * cols_,
                 "FastMvm voltage batch size mismatch");
  if (n == 0) return;
  voltage_stage(v_wl.data(), n, simd::enabled(), AllChunks{rows_pad_},
                t_out.data(), scratch);
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.mac_ops", n * rows_ * cols_);
}

void FastMvm::mvm_times_sparse(std::span<const double> t_in,
                               std::span<const std::uint32_t> active_rows,
                               std::span<double> t_out) const {
  RESIPE_TELEM_SCOPE("resipe_core.events.mvm_times_sparse",
                     perf::fast_mvm_cost(active_rows.size(), cols_));
  RESIPE_REQUIRE(t_in.size() == rows_ && t_out.size() == cols_,
                 "FastMvm vector size mismatch");
  // The woken chunks, ascending: the wake set is ascending, so the
  // dedup is a running comparison.
  SingleScratch& scratch = single_scratch();
  scratch.chunks.clear();
  for (std::size_t i = 0; i < active_rows.size(); ++i) {
    const std::uint32_t r = active_rows[i];
    RESIPE_REQUIRE(r < rows_, "FastMvm sparse wake set: row "
                                  << r << " at index " << i
                                  << " is out of range for " << rows_
                                  << " rows");
    RESIPE_REQUIRE(i == 0 || active_rows[i - 1] < r,
                   "FastMvm sparse wake set must be strictly ascending: row "
                       << r << " at index " << i << " follows row "
                       << active_rows[i - 1]);
    const auto chunk = static_cast<std::uint32_t>(r / kW);
    if (scratch.chunks.empty() || scratch.chunks.back() != chunk) {
      scratch.chunks.push_back(chunk);
    }
  }
  const bool vector = simd::enabled();
  const ListedChunks woken{scratch.chunks};
  double* v_wl = grown(scratch.v_wl, rows_pad_);
  wordline_stage(t_in.data(), 1, vector, woken, v_wl);
  voltage_stage(v_wl, 1, vector, woken, t_out.data(), scratch);
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.mac_ops",
                     active_rows.size() * cols_);
}

void FastMvm::idle_times(std::span<double> t_out, bool vector) const {
  RESIPE_TELEM_SCOPE("resipe_core.events.idle_times",
                     perf::fast_mvm_cost(0, cols_));
  RESIPE_REQUIRE(t_out.size() == cols_, "FastMvm vector size mismatch");
  // No chunk visited, so no wordline is read: every current sum is
  // exactly +0.0.
  voltage_stage(nullptr, 1, vector, ListedChunks{}, t_out.data(),
                single_scratch());
}

void FastMvm::add_current_sums(std::span<const double> t_slots,
                               std::span<const std::size_t> slot_of_col,
                               std::span<double> rec, bool vector) const {
  RESIPE_REQUIRE(t_slots.size() == cols_ && rec.size() <= cols_ &&
                     (slot_of_col.empty() || slot_of_col.size() == rec.size()),
                 "FastMvm current-sum size mismatch");
  const bool remapped = !slot_of_col.empty();
  if (!vector) {
    for (std::size_t c = 0; c < rec.size(); ++c) {
      const std::size_t s = remapped ? slot_of_col[c] : c;
      double t = t_slots[s];
      // A silent output line encodes "beyond full scale": the readout
      // books the slice-boundary value.
      if (t == kNoSpike) t = params_.slice_length;
      const double v_cog = params_.ramp_voltage(t);
      if (k_[s] > 0.0) rec[c] += v_cog * g_total_[s] / k_[s];
    }
    return;
  }
  // The scalar expression above, lane for lane and in its order; only
  // the ramp's exp is the polynomial simd::exp.
  const vdouble zero(0.0);
  const vdouble one(1.0);
  const vdouble v_s(params_.v_s);
  const vdouble tau(params_.tau_gd());
  const vdouble slice(params_.slice_length);
  const vdouble no_spike(kNoSpike);
  const bool linear = params_.model == circuits::TransferModel::kLinear;
  const auto add = [&](vdouble t, vdouble g_tot, vdouble k, vdouble r) {
    t = simd::select(t >= no_spike, slice, t);
    vdouble v = linear ? v_s * t / tau
                       : v_s * (one - simd::exp(zero - t / tau));
    v = simd::min(simd::max(v, zero), v_s);
    return simd::select(k > zero, r + v * g_tot / k, r);
  };
  std::size_t c = 0;
  if (!remapped) {
    for (; c + kW <= rec.size(); c += kW) {
      add(vdouble::loadu(t_slots.data() + c),
          vdouble::load(g_total_.data() + c), vdouble::load(k_.data() + c),
          vdouble::loadu(rec.data() + c))
          .storeu(rec.data() + c);
    }
  }
  // Remapped chunks gather t, g_total and k through slot_of_col, and
  // the tail is staged; padding lanes have k = 0 and are not copied
  // back.
  for (; c < rec.size(); c += kW) {
    const std::size_t m = std::min(kW, rec.size() - c);
    alignas(simd::kAlignment) double lane[4][kW] = {};
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t s = remapped ? slot_of_col[c + j] : c + j;
      lane[0][j] = t_slots[s];
      lane[1][j] = g_total_[s];
      lane[2][j] = k_[s];
      lane[3][j] = rec[c + j];
    }
    add(vdouble::load(lane[0]), vdouble::load(lane[1]),
        vdouble::load(lane[2]), vdouble::load(lane[3]))
        .store(lane[3]);
    std::copy(lane[3], lane[3] + m, rec.begin() + c);
  }
}

void FastMvm::ideal_times(std::span<const double> t_in,
                          std::span<double> t_out) const {
  RESIPE_REQUIRE(t_in.size() == rows_ && t_out.size() == cols_,
                 "FastMvm vector size mismatch");
  const double gain = params_.linear_gain();
  for (std::size_t c = 0; c < cols_; ++c) {
    const double* gc = g_cm_.data() + c * rows_pad_;
    double acc = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) {
      const double t = t_in[r];
      if (!(t >= 0.0) || t == kNoSpike) continue;
      acc += t * gc[r];
    }
    t_out[c] = gain * acc;
  }
}

}  // namespace resipe::resipe_core
