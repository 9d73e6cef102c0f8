// ReSiPE tile: one GD + one ReRAM crossbar + one COG cluster (Fig. 4).
//
// The tile executes a full two-slice single-spiking MVM:
//   S1  — the GD samples each input spike's arrival on the shared ramp
//         and holds the voltage on its wordline.
//   comp stage (dt, end of S1) — every column's Thevenin network
//         charges its COG capacitor.
//   S2  — each COG compares the held voltage against the restarting GD
//         ramp and emits a single output spike (Eq. 4-6).
#pragma once

#include <cstddef>
#include <vector>

#include "resipe/circuits/column_output_generator.hpp"
#include "resipe/circuits/global_decoder.hpp"
#include "resipe/circuits/params.hpp"
#include "resipe/circuits/spike.hpp"
#include "resipe/circuits/waveform.hpp"
#include "resipe/crossbar/crossbar.hpp"
#include "resipe/energy/report.hpp"

namespace resipe::resipe_core {

/// One crossbar-sized single-spiking processing tile.
class ResipeTile {
 public:
  ResipeTile(const circuits::CircuitParams& params, std::size_t rows,
             std::size_t cols, const device::ReramSpec& spec);

  /// Programs the crossbar from row-major conductance targets.
  void program(std::span<const double> g_targets, Rng& rng);

  std::size_t rows() const { return xbar_.rows(); }
  std::size_t cols() const { return xbar_.cols(); }
  const crossbar::Crossbar& crossbar() const { return xbar_; }
  const circuits::CircuitParams& params() const { return params_; }
  const circuits::GlobalDecoder& gd() const { return gd_; }
  const circuits::ColumnOutputGenerator& cog() const { return cog_; }

  /// Full behavioral MVM: input spikes (one per wordline) -> output
  /// spikes (one per bitline).  When `read_noise` is non-null, fresh
  /// cycle-to-cycle conductance noise is drawn for this MVM.
  std::vector<circuits::Spike> execute(
      const std::vector<circuits::Spike>& inputs,
      Rng* read_noise = nullptr) const;

  /// The sampled COG voltages (end of the computation stage) for the
  /// given inputs — the intermediate quantity of Eq. (3).
  std::vector<double> sample_voltages(
      const std::vector<circuits::Spike>& inputs) const;

  /// The paper's ideal linear model, Eq. (6):
  ///   t_out,j = dt / Ccog * sum_i(t_in,i * G_ij)
  /// (no clamping — values beyond the slice indicate over-range).
  std::vector<double> ideal_times(
      const std::vector<circuits::Spike>& inputs) const;

  /// End-to-end latency of one MVM: S1 + S2.
  double latency() const { return 2.0 * params_.slice_length; }

  /// Records the Fig. 3 waveforms — V(Cgd) in S1, V(Ccog) through the
  /// computation stage, the S2 ramp and the output spike of `column` —
  /// into `rec` with `samples_per_slice` points per slice.
  void trace(const std::vector<circuits::Spike>& inputs, std::size_t column,
             circuits::WaveformRecorder& rec,
             std::size_t samples_per_slice = 200) const;

  /// Per-MVM energy/area accounting for this tile (feeds Table II).
  energy::EnergyReport energy_report(
      const std::vector<circuits::Spike>& inputs) const;

 private:
  circuits::CircuitParams params_;
  crossbar::Crossbar xbar_;
  circuits::GlobalDecoder gd_;
  circuits::ColumnOutputGenerator cog_;
};

}  // namespace resipe::resipe_core
