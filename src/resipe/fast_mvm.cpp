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

/// Samples accumulated per matrix load in the batched dot kernel: four
/// independent FMA chains cover the FMA latency and amortize each
/// column load 4x.
constexpr std::size_t kSampleGroup = 4;

/// Column-block footprint target for the batch tiling: a block of
/// g_cm_ this large stays resident in L2 while every sample in the
/// batch streams through it.
constexpr std::size_t kBlockBytes = 128 * 1024;

/// Prefetch distance (in doubles) ahead of the streaming matrix reads.
constexpr std::size_t kPrefetchAhead = 64;

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

// --- scalar reference path ---------------------------------------------
//
// These are the original loops, byte-for-byte in the arithmetic: the
// scalar build and RESIPE_SIMD=scalar reproduce historical results
// exactly, and the verify harness measures the SIMD path against them.

void FastMvm::wordline_voltages(std::span<const double> t_in,
                                double* v_wl) const {
  const double tau_gd = params_.tau_gd();
  const double v_s = params_.v_s;
  const bool linear = params_.model == circuits::TransferModel::kLinear;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double t = t_in[r];
    if (!(t >= 0.0) || t == kNoSpike || t > params_.slice_length) {
      v_wl[r] = 0.0;
      continue;
    }
    // The linear ramp saturates at v_s like the real GD output
    // (CircuitParams::ramp_voltage clamps); without the clamp a fast
    // ramp (tau_gd < slice) would feed the crossbar voltages the
    // circuit cannot produce and diverge from ResipeTile.
    v_wl[r] = linear ? std::min(v_s * t / tau_gd, v_s)
                     : v_s * (1.0 - std::exp(-t / tau_gd));
  }
}

double FastMvm::recover_time(double weighted, std::size_t col,
                             std::size_t* silent) const {
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

void FastMvm::mvm_times_scalar(std::span<const double> t_in,
                               std::span<double> t_out) const {
  // S1: wordline voltages from the GD ramp.
  thread_local std::vector<double> v_wl;
  v_wl.resize(rows_);
  wordline_voltages(t_in, v_wl.data());

  // Computation stage + S2 per column.
  std::size_t silent = 0;
  for (std::size_t c = 0; c < cols_; ++c) {
    if (g_total_[c] <= 0.0) {
      // An unprogrammed column never charges: the ramp crosses 0 at t=0.
      t_out[c] = params_.comparator_delay;
      continue;
    }
    const double* gc = g_cm_.data() + c * rows_pad_;
    double weighted = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) {
      weighted += v_wl[r] * gc[r];
    }
    t_out[c] = recover_time(weighted, c, &silent);
  }
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.mac_ops", rows_ * cols_);
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.silent_outputs", silent);
}

void FastMvm::mvm_voltages_scalar(const double* v_wl, std::size_t n,
                                  std::span<double> t_out,
                                  BatchScratch& scratch) const {
  // Column-outer so each column's weights are loaded once and the dot
  // product / recovery chain runs contiguously across samples.
  scratch.weighted.resize(n);
  std::size_t silent = 0;
  for (std::size_t c = 0; c < cols_; ++c) {
    if (g_total_[c] <= 0.0) {
      for (std::size_t s = 0; s < n; ++s) {
        t_out[s * cols_ + c] = params_.comparator_delay;
      }
      continue;
    }
    const double* gc = g_cm_.data() + c * rows_pad_;
    for (std::size_t s = 0; s < n; ++s) {
      const double* vs = v_wl + s * rows_pad_;
      double weighted = 0.0;
      for (std::size_t r = 0; r < rows_; ++r) {
        weighted += vs[r] * gc[r];
      }
      scratch.weighted[s] = weighted;
    }
    for (std::size_t s = 0; s < n; ++s) {
      t_out[s * cols_ + c] = recover_time(scratch.weighted[s], c, &silent);
    }
  }
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.mac_ops", n * rows_ * cols_);
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.silent_outputs", silent);
}

// --- SIMD path ---------------------------------------------------------

void FastMvm::wordline_voltages_simd(const double* t_pad,
                                     double* v_wl) const {
  const vdouble v_s(params_.v_s);
  const vdouble zero(0.0);
  const vdouble one(1.0);
  const vdouble slice(params_.slice_length);
  const vdouble tau(params_.tau_gd());
  const bool linear = params_.model == circuits::TransferModel::kLinear;
  for (std::size_t r = 0; r < rows_pad_; r += kW) {
    const vdouble t = vdouble::load(t_pad + r);
    // Valid when 0 <= t <= slice; NaN and kNoSpike fail both compares.
    const auto valid = (t >= zero) & (t <= slice);
    vdouble v;
    if (linear) {
      v = simd::min(v_s * t / tau, v_s);
    } else {
      v = v_s * (one - simd::exp(zero - t / tau));
    }
    v = simd::select(valid, v, zero);
    v.store(v_wl + r);
  }
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

void FastMvm::mvm_times_simd(std::span<const double> t_in,
                             std::span<double> t_out) const {
  thread_local aligned_vector t_pad;
  thread_local aligned_vector v_wl;
  thread_local aligned_vector w_pad;
  thread_local aligned_vector out_pad;
  t_pad.resize(rows_pad_);
  v_wl.resize(rows_pad_);
  w_pad.resize(cols_pad_);
  out_pad.resize(cols_pad_);

  // S1 over the padded sample; padding lanes carry kNoSpike -> v = 0.
  std::copy(t_in.begin(), t_in.end(), t_pad.begin());
  std::fill(t_pad.begin() + rows_, t_pad.end(), kNoSpike);
  wordline_voltages_simd(t_pad.data(), v_wl.data());

  // Per-column FMA dot products, four columns per pass so each v_wl
  // load feeds four accumulator chains.
  for (std::size_t c0 = 0; c0 < cols_; c0 += 4) {
    const std::size_t nc = std::min<std::size_t>(4, cols_ - c0);
    if (nc == 4) {
      const double* g0 = g_cm_.data() + (c0 + 0) * rows_pad_;
      const double* g1 = g_cm_.data() + (c0 + 1) * rows_pad_;
      const double* g2 = g_cm_.data() + (c0 + 2) * rows_pad_;
      const double* g3 = g_cm_.data() + (c0 + 3) * rows_pad_;
      vdouble a0(0.0), a1(0.0), a2(0.0), a3(0.0);
      for (std::size_t r = 0; r < rows_pad_; r += kW) {
        const vdouble v = vdouble::load(v_wl.data() + r);
        a0 = simd::fma(vdouble::load(g0 + r), v, a0);
        a1 = simd::fma(vdouble::load(g1 + r), v, a1);
        a2 = simd::fma(vdouble::load(g2 + r), v, a2);
        a3 = simd::fma(vdouble::load(g3 + r), v, a3);
      }
      w_pad[c0 + 0] = simd::reduce_add(a0);
      w_pad[c0 + 1] = simd::reduce_add(a1);
      w_pad[c0 + 2] = simd::reduce_add(a2);
      w_pad[c0 + 3] = simd::reduce_add(a3);
    } else {
      for (std::size_t j = 0; j < nc; ++j) {
        const double* gc = g_cm_.data() + (c0 + j) * rows_pad_;
        vdouble acc(0.0);
        for (std::size_t r = 0; r < rows_pad_; r += kW) {
          acc = simd::fma(vdouble::load(gc + r), vdouble::load(v_wl.data() + r),
                          acc);
        }
        w_pad[c0 + j] = simd::reduce_add(acc);
      }
    }
  }
  std::fill(w_pad.begin() + cols_, w_pad.end(), 0.0);

  // S2 recovery, one vector chunk of columns at a time.
  std::size_t silent = 0;
  for (std::size_t c = 0; c < cols_pad_; c += kW) {
    recover_block_simd(w_pad.data() + c, c, out_pad.data() + c, &silent);
  }
  std::copy(out_pad.begin(), out_pad.begin() + cols_, t_out.begin());
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.mac_ops", rows_ * cols_);
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.silent_outputs", silent);
}

void FastMvm::mvm_voltages_simd(const double* v_wl, std::size_t n,
                                std::span<double> t_out,
                                BatchScratch& scratch) const {
  scratch.weighted.resize(kSampleGroup * cols_pad_);
  scratch.t_cols.resize(n * cols_pad_);
  std::size_t silent = 0;

  // Column-block outer loop: a block of g_cm_ stays L2-resident while
  // the whole batch streams through it.  Within a block, groups of
  // four samples share each matrix load.
  for (std::size_t c0 = 0; c0 < cols_; c0 += block_cols_) {
    const std::size_t c_end = std::min(c0 + block_cols_, cols_);
    // Recovery chunks must cover full vector widths; blocks start at
    // multiples of kW, so only the last block pads out.
    const std::size_t c_end_pad = (c_end == cols_) ? cols_pad_ : c_end;

    for (std::size_t s0 = 0; s0 < n; s0 += kSampleGroup) {
      const std::size_t ns = std::min(kSampleGroup, n - s0);
      const double* vw0 = v_wl + s0 * rows_pad_;

      for (std::size_t c = c0; c < c_end; ++c) {
        const double* gc = g_cm_.data() + c * rows_pad_;
        if (ns == kSampleGroup) {
          const double* vw1 = vw0 + rows_pad_;
          const double* vw2 = vw1 + rows_pad_;
          const double* vw3 = vw2 + rows_pad_;
          vdouble a0(0.0), a1(0.0), a2(0.0), a3(0.0);
          for (std::size_t r = 0; r < rows_pad_; r += kW) {
            simd::prefetch(gc + r + kPrefetchAhead);
            const vdouble g = vdouble::load(gc + r);
            a0 = simd::fma(vdouble::load(vw0 + r), g, a0);
            a1 = simd::fma(vdouble::load(vw1 + r), g, a1);
            a2 = simd::fma(vdouble::load(vw2 + r), g, a2);
            a3 = simd::fma(vdouble::load(vw3 + r), g, a3);
          }
          scratch.weighted[0 * cols_pad_ + c] = simd::reduce_add(a0);
          scratch.weighted[1 * cols_pad_ + c] = simd::reduce_add(a1);
          scratch.weighted[2 * cols_pad_ + c] = simd::reduce_add(a2);
          scratch.weighted[3 * cols_pad_ + c] = simd::reduce_add(a3);
        } else {
          for (std::size_t j = 0; j < ns; ++j) {
            const double* vwj = vw0 + j * rows_pad_;
            vdouble acc(0.0);
            for (std::size_t r = 0; r < rows_pad_; r += kW) {
              simd::prefetch(gc + r + kPrefetchAhead);
              acc = simd::fma(vdouble::load(vwj + r), vdouble::load(gc + r),
                              acc);
            }
            scratch.weighted[j * cols_pad_ + c] = simd::reduce_add(acc);
          }
        }
      }

      // S2 for this (sample group x column block), contiguous per
      // sample over the padded output row.
      for (std::size_t j = 0; j < ns; ++j) {
        double* out_row = scratch.t_cols.data() + (s0 + j) * cols_pad_;
        const double* w_row = scratch.weighted.data() + j * cols_pad_;
        for (std::size_t c = c0; c < c_end_pad; c += kW) {
          recover_block_simd(w_row + c, c, out_row + c, &silent);
        }
      }
    }
  }

  for (std::size_t s = 0; s < n; ++s) {
    const double* src = scratch.t_cols.data() + s * cols_pad_;
    std::copy(src, src + cols_, t_out.begin() + s * cols_);
  }
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.mac_ops", n * rows_ * cols_);
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.silent_outputs", silent);
}

// --- event-driven sparse kernels ---------------------------------------
//
// Bit-identity with the dense kernels rests on two IEEE facts the
// dense paths already rely on:
//   * a silent row's wordline voltage is exactly +0.0 — invalid times
//     are zeroed by the validity branch/mask, and t = 0 (the encoding
//     of input value 0) gives v_s * (1 - exp(-0)) = +0.0 because
//     exp(+-0.0) == 1.0 exactly on every backend (see common/simd.hpp);
//   * adding +0.0 (scalar) or fma(g, 0-vector, acc) (SIMD) leaves a
//     non-negative accumulator bitwise unchanged, so skipping those
//     terms preserves every partial sum the dense loop would produce.
// The SIMD kernel therefore skips whole kW-row chunks — never
// compacting active rows into fewer lanes, which would re-shape the
// fixed FMA/reduction tree and change the rounding.

void FastMvm::mvm_times_sparse_scalar(
    std::span<const double> t_in, std::span<const std::uint32_t> active_rows,
    std::span<double> t_out) const {
  // S1 only at the active rows; the expressions match
  // wordline_voltages() and every active row passes its validity
  // predicate by the caller's contract.
  thread_local std::vector<double> v_act;
  v_act.resize(active_rows.size());
  const double tau_gd = params_.tau_gd();
  const double v_s = params_.v_s;
  const bool linear = params_.model == circuits::TransferModel::kLinear;
  for (std::size_t i = 0; i < active_rows.size(); ++i) {
    const double t = t_in[active_rows[i]];
    v_act[i] = linear ? std::min(v_s * t / tau_gd, v_s)
                      : v_s * (1.0 - std::exp(-t / tau_gd));
  }

  std::size_t silent = 0;
  for (std::size_t c = 0; c < cols_; ++c) {
    if (g_total_[c] <= 0.0) {
      t_out[c] = params_.comparator_delay;
      continue;
    }
    const double* gc = g_cm_.data() + c * rows_pad_;
    // Row-ascending over the active set: the same partial-sum sequence
    // as the dense loop minus its exact-zero terms.
    double weighted = 0.0;
    for (std::size_t i = 0; i < active_rows.size(); ++i) {
      weighted += v_act[i] * gc[active_rows[i]];
    }
    t_out[c] = recover_time(weighted, c, &silent);
  }
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.mac_ops",
                     active_rows.size() * cols_);
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.silent_outputs", silent);
}

void FastMvm::mvm_times_sparse_simd(
    std::span<const double> t_in, std::span<const std::uint32_t> active_rows,
    std::span<double> t_out) const {
  thread_local aligned_vector t_pad;
  thread_local aligned_vector v_wl;
  thread_local aligned_vector w_pad;
  thread_local aligned_vector out_pad;
  thread_local std::vector<std::uint32_t> chunks;
  t_pad.resize(rows_pad_);
  v_wl.resize(rows_pad_);
  w_pad.resize(cols_pad_);
  out_pad.resize(cols_pad_);

  std::copy(t_in.begin(), t_in.end(), t_pad.begin());
  std::fill(t_pad.begin() + rows_, t_pad.end(), kNoSpike);

  // Active kW-row chunks, ascending (active_rows is ascending so the
  // dedup is a running comparison).  Inactive chunks are never staged:
  // their v_wl slots may hold stale data, and no FMA ever reads them.
  chunks.clear();
  for (const std::uint32_t r : active_rows) {
    const std::uint32_t ch = r / static_cast<std::uint32_t>(kW);
    if (chunks.empty() || chunks.back() != ch) chunks.push_back(ch);
  }

  // S1 per active chunk — the wordline_voltages_simd loop body, run
  // only where an event landed.  Lanes of an active chunk that are
  // themselves silent (or padding) still come out exactly 0 through
  // the same validity mask the dense kernel applies.
  {
    const vdouble v_s(params_.v_s);
    const vdouble zero(0.0);
    const vdouble one(1.0);
    const vdouble slice(params_.slice_length);
    const vdouble tau(params_.tau_gd());
    const bool linear = params_.model == circuits::TransferModel::kLinear;
    for (const std::uint32_t ch : chunks) {
      const std::size_t r = static_cast<std::size_t>(ch) * kW;
      const vdouble t = vdouble::load(t_pad.data() + r);
      const auto valid = (t >= zero) & (t <= slice);
      vdouble v;
      if (linear) {
        v = simd::min(v_s * t / tau, v_s);
      } else {
        v = v_s * (one - simd::exp(zero - t / tau));
      }
      v = simd::select(valid, v, zero);
      v.store(v_wl.data() + r);
    }
  }

  // Dot products over active chunks only.  The dense kernel folds all
  // chunks in ascending order; a skipped chunk contributes
  // fma(g, 0, acc) == acc bitwise, so the accumulator states at every
  // active chunk — and the final pairwise reduction — are identical.
  for (std::size_t c0 = 0; c0 < cols_; c0 += 4) {
    const std::size_t nc = std::min<std::size_t>(4, cols_ - c0);
    if (nc == 4) {
      const double* g0 = g_cm_.data() + (c0 + 0) * rows_pad_;
      const double* g1 = g_cm_.data() + (c0 + 1) * rows_pad_;
      const double* g2 = g_cm_.data() + (c0 + 2) * rows_pad_;
      const double* g3 = g_cm_.data() + (c0 + 3) * rows_pad_;
      vdouble a0(0.0), a1(0.0), a2(0.0), a3(0.0);
      for (const std::uint32_t ch : chunks) {
        const std::size_t r = static_cast<std::size_t>(ch) * kW;
        const vdouble v = vdouble::load(v_wl.data() + r);
        a0 = simd::fma(vdouble::load(g0 + r), v, a0);
        a1 = simd::fma(vdouble::load(g1 + r), v, a1);
        a2 = simd::fma(vdouble::load(g2 + r), v, a2);
        a3 = simd::fma(vdouble::load(g3 + r), v, a3);
      }
      w_pad[c0 + 0] = simd::reduce_add(a0);
      w_pad[c0 + 1] = simd::reduce_add(a1);
      w_pad[c0 + 2] = simd::reduce_add(a2);
      w_pad[c0 + 3] = simd::reduce_add(a3);
    } else {
      for (std::size_t j = 0; j < nc; ++j) {
        const double* gc = g_cm_.data() + (c0 + j) * rows_pad_;
        vdouble acc(0.0);
        for (const std::uint32_t ch : chunks) {
          const std::size_t r = static_cast<std::size_t>(ch) * kW;
          acc = simd::fma(vdouble::load(gc + r), vdouble::load(v_wl.data() + r),
                          acc);
        }
        w_pad[c0 + j] = simd::reduce_add(acc);
      }
    }
  }
  std::fill(w_pad.begin() + cols_, w_pad.end(), 0.0);

  std::size_t silent = 0;
  for (std::size_t c = 0; c < cols_pad_; c += kW) {
    recover_block_simd(w_pad.data() + c, c, out_pad.data() + c, &silent);
  }
  std::copy(out_pad.begin(), out_pad.begin() + cols_, t_out.begin());
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.mac_ops",
                     chunks.size() * kW * cols_);
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.silent_outputs", silent);
}

// --- public entry points -----------------------------------------------

void FastMvm::mvm_times(std::span<const double> t_in,
                        std::span<double> t_out) const {
  RESIPE_TELEM_SCOPE("resipe_core.fast_mvm.mvm_times",
                     perf::fast_mvm_cost(rows_, cols_));
  RESIPE_REQUIRE(t_in.size() == rows_ && t_out.size() == cols_,
                 "FastMvm vector size mismatch");
  if (simd::enabled()) {
    mvm_times_simd(t_in, t_out);
  } else {
    mvm_times_scalar(t_in, t_out);
  }
}

void FastMvm::mvm_times_batch(std::span<const double> t_in, std::size_t n,
                              std::span<double> t_out,
                              BatchScratch& scratch) const {
  RESIPE_TELEM_SCOPE("resipe_core.fast_mvm.mvm_times_batch",
                     perf::fast_mvm_batch_cost(rows_, cols_, n));
  RESIPE_REQUIRE(t_in.size() == n * rows_ && t_out.size() == n * cols_,
                 "FastMvm batch size mismatch");
  if (n == 0) return;
  wordline_stage(t_in, n, scratch.v_wl);
  voltage_stage(scratch.v_wl.data(), n, t_out, scratch);
}

void FastMvm::wordline_batch(std::span<const double> t_in, std::size_t n,
                             aligned_vector& v_wl) const {
  RESIPE_TELEM_SCOPE("resipe_core.fast_mvm.wordline_batch",
                     perf::fast_mvm_wordline_cost(rows_, n));
  RESIPE_REQUIRE(t_in.size() == n * rows_, "FastMvm wordline size mismatch");
  wordline_stage(t_in, n, v_wl);
}

void FastMvm::mvm_voltages_batch(const aligned_vector& v_wl, std::size_t n,
                                 std::span<double> t_out,
                                 BatchScratch& scratch) const {
  RESIPE_TELEM_SCOPE("resipe_core.fast_mvm.mvm_voltages_batch",
                     perf::fast_mvm_voltages_cost(rows_, cols_, n));
  RESIPE_REQUIRE(v_wl.size() == n * rows_pad_ && t_out.size() == n * cols_,
                 "FastMvm voltage batch size mismatch");
  if (n == 0) return;
  voltage_stage(v_wl.data(), n, t_out, scratch);
}

void FastMvm::wordline_stage(std::span<const double> t_in, std::size_t n,
                             aligned_vector& v_wl) const {
  v_wl.resize(n * rows_pad_);
  if (!simd::enabled()) {
    for (std::size_t s = 0; s < n; ++s) {
      double* v = v_wl.data() + s * rows_pad_;
      wordline_voltages(t_in.subspan(s * rows_, rows_), v);
      std::fill(v + rows_, v + rows_pad_, 0.0);
    }
    return;
  }
  // Same kernel as the single-sample path, so every element is bitwise
  // identical to it; padding lanes carry kNoSpike -> v = 0.
  thread_local aligned_vector t_pad;
  t_pad.resize(rows_pad_);
  for (std::size_t s = 0; s < n; ++s) {
    const auto sample = t_in.subspan(s * rows_, rows_);
    std::copy(sample.begin(), sample.end(), t_pad.begin());
    std::fill(t_pad.begin() + rows_, t_pad.end(), kNoSpike);
    wordline_voltages_simd(t_pad.data(), v_wl.data() + s * rows_pad_);
  }
}

void FastMvm::voltage_stage(const double* v_wl, std::size_t n,
                            std::span<double> t_out,
                            BatchScratch& scratch) const {
  if (simd::enabled()) {
    mvm_voltages_simd(v_wl, n, t_out, scratch);
  } else {
    mvm_voltages_scalar(v_wl, n, t_out, scratch);
  }
}

void FastMvm::idle_times(std::span<double> t_out, bool vector) const {
  RESIPE_TELEM_SCOPE("resipe_core.events.idle_times",
                     perf::fast_mvm_cost(0, cols_));
  RESIPE_REQUIRE(t_out.size() == cols_, "FastMvm vector size mismatch");
  std::size_t silent = 0;
  if (vector) {
    thread_local aligned_vector w_pad;
    thread_local aligned_vector out_pad;
    w_pad.assign(cols_pad_, 0.0);
    out_pad.resize(cols_pad_);
    for (std::size_t c = 0; c < cols_pad_; c += kW) {
      recover_block_simd(w_pad.data() + c, c, out_pad.data() + c, &silent);
    }
    std::copy(out_pad.begin(), out_pad.begin() + cols_, t_out.begin());
  } else {
    for (std::size_t c = 0; c < cols_; ++c) {
      if (g_total_[c] <= 0.0) {
        t_out[c] = params_.comparator_delay;
        continue;
      }
      // The dense loop's current sum over all-zero wordlines is
      // exactly +0.0 on either kernel path; recover from that.
      t_out[c] = recover_time(0.0, c, &silent);
    }
  }
  RESIPE_TELEM_COUNT("resipe_core.fast_mvm.silent_outputs", silent);
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

void FastMvm::mvm_times_sparse(std::span<const double> t_in,
                               std::span<const std::uint32_t> active_rows,
                               std::span<double> t_out) const {
  RESIPE_TELEM_SCOPE("resipe_core.events.mvm_times_sparse",
                     perf::fast_mvm_cost(active_rows.size(), cols_));
  RESIPE_REQUIRE(t_in.size() == rows_ && t_out.size() == cols_,
                 "FastMvm vector size mismatch");
  RESIPE_REQUIRE(active_rows.size() <= rows_ &&
                     (active_rows.empty() || active_rows.back() < rows_),
                 "FastMvm sparse wake set out of range");
  if (simd::enabled()) {
    mvm_times_sparse_simd(t_in, active_rows, t_out);
  } else {
    mvm_times_sparse_scalar(t_in, active_rows, t_out);
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
