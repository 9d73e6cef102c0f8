#include "resipe/device/reram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "resipe/common/error.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::device {

double drift_conductance(double g0, double elapsed, double t0, double nu) {
  RESIPE_REQUIRE(elapsed >= 0.0, "negative retention time");
  if (nu <= 0.0 || t0 <= 0.0 || elapsed <= t0) return g0;
  return g0 * std::pow(elapsed / t0, -nu);
}

void ReramSpec::validate() const {
  RESIPE_REQUIRE(r_lrs > 0.0, "LRS must be positive");
  RESIPE_REQUIRE(r_hrs > r_lrs, "HRS must exceed LRS");
  RESIPE_REQUIRE(levels >= 2, "need at least 2 conductance levels");
  RESIPE_REQUIRE(write_verify_tolerance >= 0.0, "negative write tolerance");
  RESIPE_REQUIRE(variation_sigma >= 0.0, "negative variation sigma");
  RESIPE_REQUIRE(read_noise_sigma >= 0.0, "negative read noise sigma");
  RESIPE_REQUIRE(transistor_r_on >= 0.0, "negative transistor resistance");
  RESIPE_REQUIRE(cell_area > 0.0, "non-positive cell area");
  RESIPE_REQUIRE(drift_nu >= 0.0, "negative drift exponent");
  RESIPE_REQUIRE(drift_t0 > 0.0, "drift reference time must be positive");
}

ReramSpec ReramSpec::characterization() {
  ReramSpec spec;
  spec.r_lrs = 10.0 * units::kOhm;
  spec.r_hrs = 1.0 * units::MOhm;
  return spec;
}

ReramSpec ReramSpec::nn_mapping() {
  ReramSpec spec;
  spec.r_lrs = 50.0 * units::kOhm;
  spec.r_hrs = 1.0 * units::MOhm;
  return spec;
}

void ReramCell::program(const ReramSpec& spec, double target_g, Rng& rng) {
  // Crossbars program cells in tight loops; the disabled-telemetry path
  // must stay at this one predicted branch.
  if (RESIPE_TELEM_ACTIVE()) {
    RESIPE_TELEM_SCOPE("device.reram.program_cell");
    program_impl<true>(spec, target_g, rng);
    return;
  }
  program_impl<false>(spec, target_g, rng);
}

void ReramCell::program_untracked(const ReramSpec& spec, double target_g,
                                  Rng& rng) {
  program_impl<false>(spec, target_g, rng);
}

template <bool kInstrumented>
void ReramCell::program_impl(const ReramSpec& spec, double target_g,
                             Rng& rng) {
  spec.validate();
  // NaN slips through std::clamp unchanged and would poison every MVM
  // that touches this cell; infinities clamp to a rail silently, which
  // is just as much a caller bug.
  RESIPE_REQUIRE(std::isfinite(target_g), "non-finite conductance target");
  const ConductanceQuantizer quant(spec);
  target_g_ = std::clamp(target_g, spec.g_min(), spec.g_max());
  // An injected/worn-out hard fault is permanent: write pulses cannot
  // move the cell, so programming keeps the pinned rail value.
  if (hard_fault_) return;
  if constexpr (kInstrumented) {
    RESIPE_TELEM_COUNT("device.reram.program_ops", 1);
  }
  // Snap to the nearest programmable level.
  const double w = quant.g_to_weight(target_g_);
  double g = quant.weight_to_g_quantized(w);
  if constexpr (kInstrumented) {
    if (g != target_g_) {
      RESIPE_TELEM_COUNT("device.reram.quantized_writes", 1);
    }
  }
  // Write-verify residue: uniform within the verify window.  The model
  // folds the whole retry loop into one residue draw; count it as one
  // verify attempt so fault-injection work can track the budget.
  if (spec.write_verify_tolerance > 0.0) {
    if constexpr (kInstrumented) {
      RESIPE_TELEM_COUNT("device.reram.write_verify_attempts", 1);
    }
    g *= 1.0 + rng.uniform(-spec.write_verify_tolerance,
                           spec.write_verify_tolerance);
  }
  // Static process variation: multiplicative normal per [21, 22].
  if (spec.variation_sigma > 0.0) {
    g *= 1.0 + rng.normal(0.0, spec.variation_sigma);
  }
  // A cell cannot be programmed outside its physical window by much;
  // keep it non-negative and bounded by 2x G_max as a sanity envelope
  // (strongly-varied devices can overshoot the nominal window [21]).
  const double clamped = std::clamp(g, 0.0, 2.0 * spec.g_max());
  if constexpr (kInstrumented) {
    if (clamped != g) {
      RESIPE_TELEM_COUNT("device.reram.clamped_writes", 1);
    }
  }
  programmed_g_ = clamped;
}

ProgramResult ReramCell::program_verified(const ReramSpec& spec,
                                          double target_g, Rng& rng,
                                          const ProgramBudget& budget) {
  spec.validate();
  RESIPE_REQUIRE(std::isfinite(target_g), "non-finite conductance target");
  RESIPE_REQUIRE(budget.max_attempts >= 1, "need at least one write attempt");
  ProgramResult result;
  const ConductanceQuantizer quant(spec);
  target_g_ = std::clamp(target_g, spec.g_min(), spec.g_max());
  if (hard_fault_) {
    result.status = ProgramStatus::kHardFault;
    return result;
  }
  // The verify loop chases the nearest programmable level.
  const double goal = quant.weight_to_g_quantized(quant.g_to_weight(target_g_));
  const double tol = spec.write_verify_tolerance;
  double best_g = 0.0;
  double best_err = std::numeric_limits<double>::infinity();
  for (int attempt = 1; attempt <= budget.max_attempts; ++attempt) {
    result.attempts = attempt;
    // One write pulse: lands with a normal residue whose sigma is the
    // verify tolerance (the folded model's uniform window is the
    // accepted-sample distribution of this loop).
    const double g =
        tol > 0.0 ? goal * (1.0 + rng.normal(0.0, tol)) : goal;
    const double err = std::abs(g - goal) / goal;
    if (err < best_err) {
      best_err = err;
      best_g = g;
    }
    if (err <= tol || tol <= 0.0) break;
  }
  RESIPE_TELEM_COUNT("reliability.write_verify_attempts",
                     result.attempts);
  result.status = best_err <= tol || tol <= 0.0 ? ProgramStatus::kOk
                                                : ProgramStatus::kGaveUp;
  if (result.status == ProgramStatus::kGaveUp) {
    RESIPE_TELEM_COUNT("reliability.write_giveups", 1);
  }
  result.relative_error = tol <= 0.0 ? 0.0 : best_err;
  double g = best_g;
  // Static process variation applies to the accepted level as in the
  // folded model, with the same physical-envelope clamp.
  if (spec.variation_sigma > 0.0) {
    g *= 1.0 + rng.normal(0.0, spec.variation_sigma);
  }
  programmed_g_ = std::clamp(g, 0.0, 2.0 * spec.g_max());
  return result;
}

void ReramCell::force_stuck_lrs(const ReramSpec& spec) {
  programmed_g_ = spec.g_max();
  hard_fault_ = true;
}

void ReramCell::force_stuck_hrs(const ReramSpec& spec) {
  programmed_g_ = spec.g_min();
  hard_fault_ = true;
}

double ReramCell::read_g(const ReramSpec& spec, Rng& rng) const {
  double g = programmed_g_;
  if (spec.read_noise_sigma > 0.0) {
    g *= 1.0 + rng.normal(0.0, spec.read_noise_sigma);
  }
  return std::max(g, 0.0);
}

double ReramCell::drifted_g(const ReramSpec& spec, double elapsed) const {
  RESIPE_REQUIRE(elapsed >= 0.0, "negative retention time");
  if (hard_fault_) return programmed_g_;  // a pinned filament does not relax
  return drift_conductance(programmed_g_, elapsed, spec.drift_t0,
                           spec.drift_nu);
}

double ReramCell::effective_g(const ReramSpec& spec) const {
  if (programmed_g_ <= 0.0) return 0.0;
  const double r_cell = 1.0 / programmed_g_;
  return 1.0 / (r_cell + spec.transistor_r_on);
}

ConductanceQuantizer::ConductanceQuantizer(const ReramSpec& spec)
    : g_min_(spec.g_min()),
      g_max_(spec.g_max()),
      step_((spec.g_max() - spec.g_min()) / (spec.levels - 1)),
      levels_(spec.levels) {}

double ConductanceQuantizer::weight_to_g(double w) const {
  w = std::clamp(w, 0.0, 1.0);
  return g_min_ + w * (g_max_ - g_min_);
}

double ConductanceQuantizer::weight_to_g_quantized(double w) const {
  const double g = weight_to_g(w);
  const double level = std::round((g - g_min_) / step_);
  return g_min_ + level * step_;
}

double ConductanceQuantizer::g_to_weight(double g) const {
  const double w = (g - g_min_) / (g_max_ - g_min_);
  return std::clamp(w, 0.0, 1.0);
}

}  // namespace resipe::device
