#include "resipe/resipe/spike_code.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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

/// Maps x to y through f(V) -> V, V-wide: whole chunks load and store
/// in place, so y may alias x, and the tail runs through zero-padded
/// lanes.
template <class V, class F>
void map_lanes(std::span<const double> x, std::span<double> y, F&& f) {
  constexpr std::size_t W = simd::lanes<V>;
  std::size_t i = 0;
  for (; i + W <= x.size(); i += W) {
    f(V::loadu(x.data() + i)).storeu(y.data() + i);
  }
  if (i == x.size()) return;
  alignas(simd::kAlignment) double lane[W] = {};
  std::copy(x.begin() + i, x.end(), lane);
  f(V::load(lane)).store(lane);
  std::copy(lane, lane + (x.size() - i), y.begin() + i);
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
  if (values.empty()) return;
  const bool linear = params_.model == circuits::TransferModel::kLinear;
  std::size_t clipped = 0;
  std::size_t snapped = 0;
  simd::at_width(simd::enabled(), [&](auto vec) {
    using V = decltype(vec);
    const V zero(0.0);
    const V one(1.0);
    const V v_full(v_full_);
    const V v_s(params_.v_s);
    const V tau(params_.tau_gd());
    const V t_full(t_full_);
    const V clock(params_.clock_period);
    map_lanes<V>(values, times, [&](V x) {
      // One input cannot be clipped on both sides, so the counts add.
      clipped += simd::mask_count(x < zero) + simd::mask_count(x > one);
      const V v = simd::min(simd::max(x, zero), one) * v_full;
      // ramp_crossing(v): v <= v_full <= v_s, and v == v_s (the exact
      // model's unreachable asymptote) gives log(0) = -inf, so the time
      // is +inf there as in the scalar branch; only the v <= 0 edge
      // needs a select.
      const V t =
          linear ? v * tau / v_s : (zero - tau) * simd::log(one - v / v_s);
      return simd::min(simd::select(v <= zero, zero, t), t_full);
    });
    if (!quantize_) return;
    // Clock snap, in place: simd::round is bit-equal to std::round on
    // every backend (half away from zero — the tie behavior is part of
    // the quantization contract, pinned in test_simd.cpp).  Masks only
    // compose with &, so count q == t as <= and >=; zero padding lanes
    // snap 0 to 0 and never inflate the count.  A second pass is faster
    // than fusing the snap into the first one.
    map_lanes<V>(times, times, [&](V t) {
      const V q = simd::min(simd::round(t / clock) * clock, t_full);
      snapped += simd::lanes<V> - simd::mask_count((q <= t) & (q >= t));
      return q;
    });
  });
  if (telemetry_) record_encode_batch(values.size(), clipped, snapped);
}

void SpikeCodec::decode_values(std::span<const double> times,
                               std::span<double> values) const {
  RESIPE_REQUIRE(times.size() == values.size(),
                 "decode_values span size mismatch");
  if (times.empty()) return;
  const bool linear = params_.model == circuits::TransferModel::kLinear;
  std::size_t silent = 0;
  simd::at_width(simd::enabled(), [&](auto vec) {
    using V = decltype(vec);
    const V zero(0.0);
    const V one(1.0);
    const V v_full(v_full_);
    const V v_s(params_.v_s);
    const V tau(params_.tau_gd());
    const V t_full(t_full_);
    const V no_spike(std::numeric_limits<double>::infinity());
    map_lanes<V>(times, values, [&](V t_raw) {
      // Spike::valid(): t >= 0 and t != inf.  NaN and inf fail the
      // window compare, negatives fail the sign compare.
      const auto valid = (t_raw >= zero) & (t_raw < no_spike);
      silent += simd::lanes<V> - simd::mask_count(valid);
      const V t = simd::min(t_raw, t_full);
      const V v = linear ? v_s * t / tau
                         : v_s * (one - simd::exp(zero - t / tau));
      // ramp_voltage clamps to [0, v_s]; decode then clamps v/v_full to
      // [0, 1] — fold both into one clamp after the scale.
      return simd::select(valid, simd::min(simd::max(v / v_full, zero), one),
                          one);
    });
  });
  if (telemetry_) record_decode_batch(times.size(), silent);
}

}  // namespace resipe::resipe_core
