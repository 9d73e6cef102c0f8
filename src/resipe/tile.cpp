#include "resipe/resipe/tile.hpp"

#include <algorithm>
#include <cmath>

#include "resipe/circuits/rc_stage.hpp"
#include "resipe/common/error.hpp"
#include "resipe/energy/components.hpp"
#include "resipe/perf/work_model.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::resipe_core {

ResipeTile::ResipeTile(const circuits::CircuitParams& params,
                       std::size_t rows, std::size_t cols,
                       const device::ReramSpec& spec)
    : params_(params), xbar_(rows, cols, spec), gd_(params), cog_(params) {
  params_.validate();
}

void ResipeTile::program(std::span<const double> g_targets, Rng& rng) {
  xbar_.program(g_targets, rng);
}

std::vector<circuits::Spike> ResipeTile::execute(
    const std::vector<circuits::Spike>& inputs, Rng* read_noise) const {
  RESIPE_TELEM_SCOPE("resipe_core.tile.execute",
                     perf::tile_execute_cost(rows(), cols()));
  RESIPE_REQUIRE(inputs.size() == rows(),
                 "input spike count " << inputs.size() << " != rows "
                                      << rows());
  const std::vector<double> v_wl = gd_.decode(inputs);
  const auto drives = read_noise ? xbar_.drives_noisy(v_wl, *read_noise)
                                 : xbar_.drives(v_wl);
  std::vector<circuits::Spike> out(cols());
  std::size_t fired = 0;
  for (std::size_t c = 0; c < cols(); ++c) {
    out[c] = cog_.convert(drives[c], gd_);
    if (out[c].valid()) ++fired;
  }
  RESIPE_TELEM_COUNT("resipe_core.tile.mvms", 1);
  RESIPE_TELEM_COUNT("resipe_core.tile.output_spikes", fired);
  RESIPE_TELEM_COUNT("resipe_core.tile.silent_columns", cols() - fired);
  return out;
}

std::vector<double> ResipeTile::sample_voltages(
    const std::vector<circuits::Spike>& inputs) const {
  RESIPE_REQUIRE(inputs.size() == rows(), "input spike count mismatch");
  const std::vector<double> v_wl = gd_.decode(inputs);
  const auto drives = xbar_.drives(v_wl);
  std::vector<double> v(cols());
  for (std::size_t c = 0; c < cols(); ++c)
    v[c] = cog_.sample_voltage(drives[c]);
  return v;
}

std::vector<double> ResipeTile::ideal_times(
    const std::vector<circuits::Spike>& inputs) const {
  RESIPE_REQUIRE(inputs.size() == rows(), "input spike count mismatch");
  std::vector<double> t(cols(), 0.0);
  const double gain = params_.linear_gain();
  for (std::size_t c = 0; c < cols(); ++c) {
    double acc = 0.0;
    for (std::size_t r = 0; r < rows(); ++r) {
      if (!inputs[r].valid()) continue;
      acc += inputs[r].arrival_time * xbar_.effective_g(r, c);
    }
    t[c] = gain * acc;
  }
  return t;
}

void ResipeTile::trace(const std::vector<circuits::Spike>& inputs,
                       std::size_t column, circuits::WaveformRecorder& rec,
                       std::size_t samples_per_slice) const {
  RESIPE_TELEM_SCOPE("resipe_core.tile.transient_trace");
  RESIPE_REQUIRE(column < cols(), "traced column out of range");
  RESIPE_REQUIRE(samples_per_slice >= 8, "too few trace samples");
  const double slice = params_.slice_length;
  const double dt = params_.comp_stage;
  const double comp_start = slice - dt;
  const std::vector<double> v_wl = gd_.decode(inputs);
  const auto drive = xbar_.column_drive(column, v_wl);
  const double v_out = cog_.sample_voltage(drive);
  const auto out_spikes = execute(inputs);
  const circuits::Spike& out = out_spikes[column];

  const double step = slice / static_cast<double>(samples_per_slice);

  // --- S1: GD ramp charges, then the discharge switch clears it during
  // the computation stage.
  for (std::size_t i = 0; i <= samples_per_slice; ++i) {
    const double t = static_cast<double>(i) * step;
    const double v = t < comp_start ? gd_.ramp_voltage(t) : 0.0;
    rec.record("V(Cgd)", t, v);
  }
  // --- computation stage: Ccog charges toward Veq.
  const double tau_cog =
      drive.g_total > 0.0 ? params_.c_cog / drive.g_total : 0.0;
  for (std::size_t i = 0; i <= samples_per_slice; ++i) {
    const double t = static_cast<double>(i) * step;
    double v = 0.0;
    if (t >= comp_start && drive.g_total > 0.0) {
      v = circuits::rc_voltage(0.0, drive.v_eq, tau_cog, t - comp_start);
    } else if (t < comp_start) {
      v = 0.0;
    }
    rec.record("V(Ccog)", t, v);
  }
  // --- input spikes on the traced column's wordlines (digital).
  for (std::size_t r = 0; r < std::min<std::size_t>(rows(), 2); ++r) {
    const std::string name = "S_in" + std::to_string(r + 1);
    for (std::size_t i = 0; i <= samples_per_slice; ++i) {
      const double t = static_cast<double>(i) * step;
      double v = 0.0;
      if (inputs[r].valid() && t >= inputs[r].arrival_time &&
          t <= inputs[r].arrival_time + inputs[r].width) {
        v = 1.0;
      }
      rec.record(name, t, v);
    }
  }
  // --- S2: ramp restarts; held V(Ccog); comparator output spike.
  for (std::size_t i = 0; i <= samples_per_slice; ++i) {
    const double t = static_cast<double>(i) * step;
    rec.record("S2 V(Cgd)", slice + t, gd_.ramp_voltage(t));
    rec.record("S2 V(Ccog) held", slice + t, v_out);
    double spike_v = 0.0;
    if (out.valid() && t >= out.arrival_time &&
        t <= out.arrival_time + out.width) {
      spike_v = 1.0;
    }
    rec.record("S_out", slice + t, spike_v);
  }
}

energy::EnergyReport ResipeTile::energy_report(
    const std::vector<circuits::Spike>& inputs) const {
  RESIPE_TELEM_SCOPE("resipe_core.tile.energy_report");
  RESIPE_REQUIRE(inputs.size() == rows(), "input spike count mismatch");
  const energy::ComponentLibrary lib;
  energy::EnergyReport report;

  std::size_t input_spikes = 0;
  for (const auto& s : inputs) {
    if (s.valid()) ++input_spikes;
  }

  // Global decoder: ramp generator charges Cgd once per slice (S1 and
  // S2), one S/H per wordline samples per MVM.
  report.add(lib.ramp_generator(params_.c_gd), 1.0, 2.0,
             2.0 * params_.slice_length);
  report.add(lib.sample_hold(), static_cast<double>(rows()),
             static_cast<double>(input_spikes) / std::max<double>(rows(), 1),
             params_.slice_length);
  report.add(lib.spike_driver(), static_cast<double>(rows()),
             static_cast<double>(input_spikes) / std::max<double>(rows(), 1),
             0.0);

  // Crossbar: current flows only during the computation stage.  Two
  // terms: the resistive loss of charging each column's Ccog to Vout
  // (source delivers Ccog*Vout*Veq, the cap stores Ccog*Vout^2/2, the
  // difference burns in the cells), and the static mismatch current
  // between wordlines held at different voltages.
  const std::vector<double> v_wl = gd_.decode(inputs);
  const auto drives = xbar_.drives(v_wl);
  const auto v_samples = sample_voltages(inputs);
  double xbar_energy = xbar_.compute_energy(v_wl, params_.comp_stage);
  for (std::size_t c = 0; c < cols(); ++c) {
    const double delivered = params_.c_cog * v_samples[c] * drives[c].v_eq;
    const double stored = 0.5 * params_.c_cog * v_samples[c] * v_samples[c];
    xbar_energy += std::max(delivered - stored, 0.0);
  }
  report.add_raw("ReRAM crossbar", xbar_energy, xbar_.area());

  // COG cluster: per column, the sampling cap + its S2 reference charge
  // and a comparator biased for the whole of S2, plus the pulse shaper
  // and output spike driver.
  double cog_cap_energy = 0.0;
  for (double v : v_samples) cog_cap_energy += cog_.conversion_energy(v);
  const auto mim = lib.mim_capacitor(params_.c_cog);
  report.add_raw("COG sampling + reference caps", cog_cap_energy,
                 2.0 * mim.area * static_cast<double>(cols()));
  auto comparator = lib.comparator();
  comparator.name = "COG comparator";
  report.add(comparator, static_cast<double>(cols()), 1.0,
             params_.slice_length);
  auto shaper = lib.pulse_shaper();
  shaper.name = "COG pulse shaper";
  report.add(shaper, static_cast<double>(cols()), 1.0, 0.0);
  auto out_driver = lib.spike_driver();
  out_driver.name = "COG output spike driver";
  report.add(out_driver, static_cast<double>(cols()), 1.0, 0.0);

  // Slice/stage sequencing control.
  report.add(lib.digital_logic(150), 1.0, 2.0, 0.0);
  return report;
}

}  // namespace resipe::resipe_core
