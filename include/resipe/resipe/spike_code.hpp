// Single-spiking value codec.
//
// A normalized value x in [0, 1] is carried by one spike per slice
// (Sec. III-A).  The codec is *ramp-coherent*: the value maps to the
// voltage the shared GD ramp has reached when the spike arrives,
//
//   x  <->  V = x * V_full,   t = ramp^{-1}(V),
//
// with V_full the ramp voltage at the end of the usable input window.
// This is the representation the architecture itself uses end to end —
// S2 emits a spike when the ramp crosses the held voltage, and the
// next layer's S1 samples the *same* ramp at that arrival time, so the
// ramp's exponential shape cancels across layers and the value travels
// as a voltage.  Arrival times are quantized to the 1 GHz timing
// calibration clock (Sec. IV-A), which is the format's real resolution
// limit: the grid is uniform in time, hence non-uniform in value.
#pragma once

#include <span>

#include "resipe/circuits/params.hpp"
#include "resipe/circuits/spike.hpp"

namespace resipe::resipe_core {

/// Bidirectional value <-> spike-time conversion for one slice format.
class SpikeCodec {
 public:
  /// `quantize = false` gives the ideal continuous codec.
  explicit SpikeCodec(const circuits::CircuitParams& params,
                      bool quantize = true);

  /// Encodes x (clamped to [0, 1]) as a spike.
  circuits::Spike encode(double x) const;

  /// Decodes a spike back to [0, 1]; a missing spike decodes to the
  /// over-range sentinel 1.0 (the line saturated).
  double decode(const circuits::Spike& spike) const;

  /// Batched encode: times[i] receives encode(values[i]).arrival_time.
  /// One body — clamp, ramp inversion, and the clock-snap quantization
  /// (simd::round, bit-equal to std::round) — instantiated at
  /// simd::vdouble and simd::vscalar.  The vscalar instance (a scalar
  /// build or RESIPE_SIMD=scalar) is bit-identical to calling encode()
  /// in a loop; the vdouble instance's pre-quantization times may
  /// differ from it by the documented transcendental bound of its log.
  /// Every lane is encoded on its own, so an element's time does not
  /// depend on the rest of the span.  `times` may be `values` itself.
  /// Telemetry counters aggregate over the batch.
  void encode_times(std::span<const double> values,
                    std::span<double> times) const;

  /// Batched decode over raw arrival times: values[i] receives what
  /// decode(Spike::at(times[i])) returns (kNoSpike or a negative time
  /// decodes to the over-range sentinel 1.0).  Same two instances and
  /// bit-identity story as encode_times, with exp in place of log.
  void decode_values(std::span<const double> times,
                     std::span<double> values) const;

  /// Sampled GD voltage corresponding to a spike time (the quantity a
  /// wordline actually receives).
  double voltage_of(double arrival_time) const;

  /// Full-scale arrival time (s): the slice minus the computation
  /// stage (a later spike would miss its S/H window).
  double t_full() const { return t_full_; }

  /// Ramp voltage at t_full — the full-scale value voltage.
  double v_full() const { return v_full_; }

  /// Number of distinguishable arrival slots: t_full / clock_period.
  int levels() const;

  bool quantized() const { return quantize_; }

  const circuits::CircuitParams& params() const { return params_; }

 private:
  circuits::CircuitParams params_;
  double t_full_;
  double v_full_;
  bool quantize_;
  // Snapshot of telemetry::enabled() taken at construction: encode and
  // decode run in ns-scale loops, and a plain bool member is the only
  // check the compiler can hoist out of them.  Codecs built before
  // telemetry is switched on do not record codec counters.
  bool telemetry_;
};

}  // namespace resipe::resipe_core
