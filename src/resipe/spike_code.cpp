#include "resipe/resipe/spike_code.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "resipe/common/error.hpp"
#include "resipe/common/simd.hpp"
#include "resipe/perf/work_model.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::resipe_core {

namespace {

// Cold bookkeeping paths: encode/decode run in ns-scale loops, so the
// disabled-telemetry cost must stay at one predicted branch per call.
// Work rides the same cold path; per-call RAII timing would dwarf the
// codec itself, so these book work only — the enclosing layer span
// carries the time.
[[gnu::noinline]] void record_encode(bool clipped, bool snapped) {
  RESIPE_TELEM_WORK("resipe_core.spike_codec.encode",
                    perf::spike_encode_cost());
  RESIPE_TELEM_COUNT("resipe_core.spike_codec.encoded", 1);
  if (clipped) {
    RESIPE_TELEM_COUNT("resipe_core.spike_codec.input_clipped", 1);
  }
  if (snapped) {
    RESIPE_TELEM_COUNT("resipe_core.spike_codec.quantization_snaps", 1);
  }
}

[[gnu::noinline]] void record_decode(bool silent) {
  RESIPE_TELEM_WORK("resipe_core.spike_codec.decode",
                    perf::spike_decode_cost());
  RESIPE_TELEM_COUNT("resipe_core.spike_codec.decoded", 1);
  if (silent) {
    RESIPE_TELEM_COUNT("resipe_core.spike_codec.silent_decodes", 1);
  }
}

perf::WorkCost scaled(perf::WorkCost c, std::size_t n) {
  return {c.flops * static_cast<double>(n),
          c.bytes * static_cast<double>(n)};
}

[[gnu::noinline]] void record_encode_batch(std::size_t n, std::size_t clipped,
                                           std::size_t snapped) {
  RESIPE_TELEM_WORK("resipe_core.spike_codec.encode",
                    scaled(perf::spike_encode_cost(), n));
  RESIPE_TELEM_COUNT("resipe_core.spike_codec.encoded", n);
  if (clipped) {
    RESIPE_TELEM_COUNT("resipe_core.spike_codec.input_clipped", clipped);
  }
  if (snapped) {
    RESIPE_TELEM_COUNT("resipe_core.spike_codec.quantization_snaps", snapped);
  }
}

[[gnu::noinline]] void record_decode_batch(std::size_t n, std::size_t silent) {
  RESIPE_TELEM_WORK("resipe_core.spike_codec.decode",
                    scaled(perf::spike_decode_cost(), n));
  RESIPE_TELEM_COUNT("resipe_core.spike_codec.decoded", n);
  if (silent) {
    RESIPE_TELEM_COUNT("resipe_core.spike_codec.silent_decodes", silent);
  }
}

}  // namespace

SpikeCodec::SpikeCodec(const circuits::CircuitParams& params, bool quantize)
    : params_(params),
      t_full_(params.slice_length - params.comp_stage),
      v_full_(0.0),
      quantize_(quantize),
      telemetry_(RESIPE_TELEM_ACTIVE()) {
  params_.validate();
  RESIPE_ASSERT(t_full_ > 0.0, "no usable input window");
  v_full_ = params_.ramp_voltage(t_full_);
  RESIPE_ASSERT(v_full_ > 0.0, "degenerate ramp");
}

circuits::Spike SpikeCodec::encode(double x) const {
  const bool clipped = x < 0.0 || x > 1.0;
  x = std::clamp(x, 0.0, 1.0);
  double t = params_.ramp_crossing(x * v_full_);
  t = std::min(t, t_full_);
  bool snapped = false;
  if (quantize_) {
    const double exact = t;
    t = std::round(t / params_.clock_period) * params_.clock_period;
    t = std::min(t, t_full_);
    snapped = t != exact;
  }
  if (telemetry_) record_encode(clipped, snapped);
  return circuits::Spike::at(t, params_.spike_width);
}

double SpikeCodec::decode(const circuits::Spike& spike) const {
  if (!spike.valid()) {
    if (telemetry_) record_decode(/*silent=*/true);
    return 1.0;
  }
  if (telemetry_) record_decode(/*silent=*/false);
  const double v =
      params_.ramp_voltage(std::min(spike.arrival_time, t_full_));
  return std::clamp(v / v_full_, 0.0, 1.0);
}

double SpikeCodec::voltage_of(double arrival_time) const {
  RESIPE_REQUIRE(arrival_time >= 0.0, "negative arrival time");
  return params_.ramp_voltage(std::min(arrival_time, t_full_));
}

int SpikeCodec::levels() const {
  return static_cast<int>(std::round(t_full_ / params_.clock_period)) + 1;
}

void SpikeCodec::encode_times(std::span<const double> values,
                              std::span<double> times) const {
  RESIPE_REQUIRE(values.size() == times.size(),
                 "encode_times span size mismatch");
  const std::size_t n = values.size();
  if (n == 0) return;
  if (!simd::enabled()) {
    // Scalar reference: element-wise encode, historical bit pattern.
    for (std::size_t i = 0; i < n; ++i) {
      times[i] = encode(values[i]).arrival_time;
    }
    return;
  }

  using simd::vdouble;
  constexpr std::size_t kW = simd::native_lanes;
  thread_local std::vector<double, simd::AlignedAllocator<double>> buf;
  const std::size_t np = simd::pad_to_lanes(n);
  buf.resize(np);
  std::copy(values.begin(), values.end(), buf.begin());
  std::fill(buf.begin() + n, buf.end(), 0.0);

  const vdouble zero(0.0);
  const vdouble one(1.0);
  const vdouble v_full(v_full_);
  const vdouble v_s(params_.v_s);
  const vdouble tau(params_.tau_gd());
  const vdouble t_full(t_full_);
  const bool linear = params_.model == circuits::TransferModel::kLinear;
  std::size_t clipped = 0;
  for (std::size_t i = 0; i < np; i += kW) {
    const vdouble x = vdouble::load(buf.data() + i);
    // One input cannot be clipped on both sides, so the counts add.
    clipped += simd::mask_count(x < zero) + simd::mask_count(x > one);
    const vdouble xc = simd::min(simd::max(x, zero), one);
    const vdouble v = xc * v_full;
    // ramp_crossing(v): v_full < v_s in the exact model (the ramp
    // never reaches its asymptote) and the linear branch has no
    // saturation case, so only the v <= 0 edge needs a select.
    vdouble t;
    if (linear) {
      t = v * tau / v_s;
    } else {
      t = (zero - tau) * simd::log(one - v / v_s);
    }
    t = simd::select(v <= zero, zero, t);
    t = simd::min(t, t_full);
    t.store(buf.data() + i);
  }

  std::size_t snapped = 0;
  if (quantize_) {
    // Vectorized clock snap: simd::round is bit-equal to std::round on
    // every backend (half away from zero — the tie behavior is part of
    // the quantization contract, pinned in test_simd.cpp).
    const vdouble clock(params_.clock_period);
    for (std::size_t i = 0; i < np; i += kW) {
      const vdouble exact = vdouble::load(buf.data() + i);
      const vdouble q = simd::min(simd::round(exact / clock) * clock, t_full);
      // Masks only compose with &, so count q == exact as <= and >=;
      // padding lanes snap 0 to 0 and never inflate the count.
      snapped += kW - simd::mask_count((q <= exact) & (q >= exact));
      q.store(buf.data() + i);
    }
  }
  std::copy(buf.begin(), buf.begin() + n, times.begin());
  if (telemetry_) record_encode_batch(n, clipped, snapped);
}

void SpikeCodec::decode_values(std::span<const double> times,
                               std::span<double> values) const {
  RESIPE_REQUIRE(times.size() == values.size(),
                 "decode_values span size mismatch");
  const std::size_t n = times.size();
  if (n == 0) return;
  if (!simd::enabled()) {
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = decode(circuits::Spike::at(times[i]));
    }
    return;
  }

  using simd::vdouble;
  constexpr std::size_t kW = simd::native_lanes;
  thread_local std::vector<double, simd::AlignedAllocator<double>> buf;
  const std::size_t np = simd::pad_to_lanes(n);
  buf.resize(np);
  std::copy(times.begin(), times.end(), buf.begin());
  std::fill(buf.begin() + n, buf.end(), 0.0);

  const vdouble zero(0.0);
  const vdouble one(1.0);
  const vdouble v_full(v_full_);
  const vdouble v_s(params_.v_s);
  const vdouble tau(params_.tau_gd());
  const vdouble t_full(t_full_);
  const vdouble no_spike(std::numeric_limits<double>::infinity());
  const bool linear = params_.model == circuits::TransferModel::kLinear;
  std::size_t silent = 0;
  for (std::size_t i = 0; i < np; i += kW) {
    const vdouble t_raw = vdouble::load(buf.data() + i);
    // Spike::valid(): t >= 0 and t != inf.  NaN and inf fail the
    // window compare, negatives fail the sign compare.
    const auto valid = (t_raw >= zero) & (t_raw < no_spike);
    silent += kW - simd::mask_count(valid);
    const vdouble t = simd::min(t_raw, t_full);
    vdouble v;
    if (linear) {
      v = v_s * t / tau;
    } else {
      v = v_s * (one - simd::exp(zero - t / tau));
    }
    // ramp_voltage clamps to [0, v_s]; decode then clamps v/v_full to
    // [0, 1] — fold both into one clamp after the scale.
    vdouble y = simd::min(simd::max(v / v_full, zero), one);
    y = simd::select(valid, y, one);
    y.store(buf.data() + i);
  }
  std::copy(buf.begin(), buf.begin() + n, values.begin());
  if (telemetry_) record_decode_batch(n, silent);
}

}  // namespace resipe::resipe_core
