#include "resipe/circuits/transient.hpp"

#include <algorithm>
#include <cmath>

#include "resipe/common/error.hpp"
#include "resipe/perf/work_model.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::circuits {

double integrate_ode(const std::function<double(double, double)>& f,
                     double v0, double t0, double t1, std::size_t steps) {
  RESIPE_REQUIRE(t1 >= t0, "integration interval inverted");
  RESIPE_REQUIRE(steps >= 1, "need at least one step");
  const double h = (t1 - t0) / static_cast<double>(steps);
  double v = v0;
  double t = t0;
  for (std::size_t i = 0; i < steps; ++i) {
    const double k1 = f(t, v);
    const double k2 = f(t + h / 2.0, v + h / 2.0 * k1);
    const double k3 = f(t + h / 2.0, v + h / 2.0 * k2);
    const double k4 = f(t + h, v + h * k3);
    v += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    t = t0 + h * static_cast<double>(i + 1);
  }
  return v;
}

double rc_node_derivative(double v, double v_inf, double tau) {
  RESIPE_REQUIRE(tau > 0.0, "RC derivative needs a positive time constant");
  return (v_inf - v) / tau;
}

double cog_comp_derivative(const CircuitParams& params,
                           std::span<const double> g,
                           std::span<const double> v_wl, double vc) {
  RESIPE_REQUIRE(g.size() == v_wl.size(),
                 "conductance / wordline voltage size mismatch");
  double i_total = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    i_total += g[i] * (v_wl[i] - vc);
  }
  return i_total / params.c_cog;
}

TransientMacResult transient_mac(const CircuitParams& params,
                                 std::span<const double> g,
                                 std::span<const Spike> inputs,
                                 std::size_t steps_per_slice) {
  RESIPE_TELEM_SCOPE("circuits.transient.mac",
                     perf::transient_mac_cost(g.size(), steps_per_slice));
  params.validate();
  RESIPE_REQUIRE(g.size() == inputs.size() && !g.empty(),
                 "conductance / input size mismatch");
  RESIPE_REQUIRE(params.model == TransferModel::kExact,
                 "the transient cross-check targets the exact model");

  const double tau_gd = params.tau_gd();
  const auto ramp_ode = [&](double, double v) {
    return rc_node_derivative(v, params.v_s, tau_gd);
  };

  TransientMacResult result;

  // --- S1: integrate the ramp up to each spike's arrival and sample.
  result.v_wordline.assign(inputs.size(), 0.0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Spike& s = inputs[i];
    if (!s.valid() || s.arrival_time > params.slice_length) continue;
    result.v_wordline[i] =
        integrate_ode(ramp_ode, 0.0, 0.0, s.arrival_time,
                      std::max<std::size_t>(
                          8, static_cast<std::size_t>(
                                 steps_per_slice * s.arrival_time /
                                 params.slice_length) +
                                 8));
  }

  // --- computation stage: the COG node sees every cell as a conductance
  // to its (held) wordline voltage.
  const auto cog_ode = [&](double, double vc) {
    return cog_comp_derivative(params, g, result.v_wordline, vc);
  };
  result.v_cog = integrate_ode(cog_ode, 0.0, 0.0, params.comp_stage,
                               steps_per_slice);

  // --- S2: step the ramp and find the crossing with the held voltage.
  const double threshold = result.v_cog + params.comparator_offset;
  if (threshold <= 0.0) {
    result.output =
        Spike::at(params.comparator_delay, params.spike_width);
    return result;
  }
  const double h =
      params.slice_length / static_cast<double>(steps_per_slice);
  double v_prev = 0.0;
  double t_prev = 0.0;
  result.output = Spike::none();
  for (std::size_t i = 1; i <= steps_per_slice; ++i) {
    const double t = h * static_cast<double>(i);
    const double v = integrate_ode(ramp_ode, v_prev, t_prev, t, 1);
    if (v >= threshold) {
      // Linear interpolation inside the step.
      const double frac = (threshold - v_prev) / (v - v_prev);
      const double t_cross = t_prev + frac * h + params.comparator_delay;
      if (t_cross <= params.slice_length) {
        result.output = Spike::at(t_cross, params.spike_width);
      }
      return result;
    }
    v_prev = v;
    t_prev = t;
  }
  return result;
}

}  // namespace resipe::circuits
