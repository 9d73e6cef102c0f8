// ReRAM device model.
//
// Behavioral model of a bipolar metal-oxide resistive switching cell in
// the 1T1R (one-transistor-one-ReRAM) configuration used by ReSiPE
// (Sec. III-D / IV-A).  A cell stores an analog conductance between
// G_min = 1/HRS and G_max = 1/LRS; MVM weights are mapped onto this
// range with a finite number of programmable levels, programmed with a
// write-verify loop of finite tolerance, and perturbed by process
// variation (normal-distributed relative error per [21, 22]) plus
// per-read noise.
#pragma once

#include <cstddef>

#include "resipe/common/rng.hpp"
#include "resipe/common/units.hpp"

namespace resipe::device {

/// Power-law retention drift closed form:
///   G(t) = G0 * (t / t0)^(-nu)   for t > t0,
///   G(t) = G0                    for t <= t0 (or nu <= 0).
/// Shared by ReramCell::drifted_g and the reliability subsystem so the
/// two never disagree.
double drift_conductance(double g0, double elapsed, double t0, double nu);

/// Static parameters of a ReRAM technology corner.
struct ReramSpec {
  /// Low / high resistance state bounds (ohm).  The usable conductance
  /// window is [1/r_hrs, 1/r_lrs].
  double r_lrs = 10.0 * units::kOhm;
  double r_hrs = 1.0 * units::MOhm;

  /// Number of distinct programmable conductance levels between G_min
  /// and G_max (inclusive); 32 levels ~ 5-bit cells, typical for
  /// multi-level metal-oxide devices [18].
  int levels = 32;

  /// Relative tolerance of the write-verify programming loop: the
  /// programmed conductance lands within +-tolerance of the target
  /// before process variation is applied.
  double write_verify_tolerance = 0.01;

  /// Relative sigma of static process variation on the programmed
  /// conductance (normal distribution per [21, 22]).  The accuracy
  /// experiment (Fig. 7) sweeps this over {0, 5, 10, 15, 20}%.
  double variation_sigma = 0.0;

  /// Relative sigma of cycle-to-cycle read noise applied per MVM.
  double read_noise_sigma = 0.0;

  /// Conductance retention drift: G(t) = G0 * (t / t0)^(-drift_nu)
  /// for t > t0 (power-law drift typical of metal-oxide ReRAM).
  /// drift_nu = 0 disables drift.
  double drift_nu = 0.0;
  double drift_t0 = 1.0;  ///< reference time (s) after programming

  /// On-resistance of the 1T1R access transistor in series with the
  /// cell (ohm).
  double transistor_r_on = 1.0 * units::kOhm;

  /// Layout area of one 1T1R cell (m^2).  ~30 F^2 at 65 nm, the usual
  /// 1T1R budget with the access transistor sized for write current.
  double cell_area = 30.0 * 65e-9 * 65e-9;

  /// Maximum conductance (siemens) = 1 / LRS.
  double g_max() const { return 1.0 / r_lrs; }
  /// Minimum conductance (siemens) = 1 / HRS.
  double g_min() const { return 1.0 / r_hrs; }

  /// Validates invariants (throws resipe::Error when violated).
  void validate() const;

  /// The corner used for the Fig. 5 characterization: LRS 10 k,
  /// HRS 1 M (Sec. III-D).
  static ReramSpec characterization();

  /// The corner used for neural-network mapping: 50 k .. 1 M per
  /// [18, 19], chosen so a 32-cell column keeps total G <= 1.6 mS
  /// (Sec. III-D conclusion).
  static ReramSpec nn_mapping();
};

/// Outcome of an explicit write-verify programming attempt sequence.
enum class ProgramStatus : std::uint8_t {
  kOk = 0,        ///< landed within tolerance inside the budget
  kGaveUp,        ///< budget exhausted; best attempt kept (flagged, not silent)
  kHardFault,     ///< cell already carries an injected hard fault
};

/// Budget of the bounded write-verify loop (reliability path).  The
/// legacy single-draw model in `program()` folds the whole loop into
/// one residue draw; `program_verified()` models the attempts
/// explicitly so give-ups are observable.
struct ProgramBudget {
  int max_attempts = 5;  ///< verify iterations before giving up
};

/// Result of `program_verified()`.
struct ProgramResult {
  ProgramStatus status = ProgramStatus::kOk;
  int attempts = 0;               ///< write pulses issued
  double relative_error = 0.0;    ///< |landed - target| / target (pre-variation)
};

/// A single programmed cell: target conductance, the value actually
/// landed after quantization + write-verify + process variation, and a
/// read accessor that adds read noise.
class ReramCell {
 public:
  ReramCell() = default;

  /// Programs the cell to the conductance nearest `target_g` (siemens).
  /// `target_g` is clamped to the spec's window, snapped to the nearest
  /// level, offset by a write-verify residue and a static process
  /// variation draw.
  void program(const ReramSpec& spec, double target_g, Rng& rng);

  /// Same as program() but without any telemetry bookkeeping or the
  /// per-call enabled check.  Batch programmers (Crossbar::program)
  /// hoist the telemetry decision out of their cell loop and call this
  /// on the disabled path so programming stays at seed-build speed.
  void program_untracked(const ReramSpec& spec, double target_g, Rng& rng);

 private:
  /// The programming body, templated so the telemetry bookkeeping is
  /// absent from the runtime-disabled path (one branch in program()).
  template <bool kInstrumented>
  void program_impl(const ReramSpec& spec, double target_g, Rng& rng);

 public:
  /// Explicit bounded write-verify loop: issues up to
  /// `budget.max_attempts` write pulses, accepting the first landing
  /// within the spec's verify tolerance of the (clamped, quantized)
  /// target.  When the budget runs out the *best* attempt is kept and
  /// the result says `kGaveUp` — an explicit status instead of the
  /// silent best-effort of the folded model.  Terminates for any finite
  /// `target_g` (the target is clamped to the spec window first — see
  /// the out-of-range regression tests).
  ProgramResult program_verified(const ReramSpec& spec, double target_g,
                                 Rng& rng, const ProgramBudget& budget);

  /// Injects a permanent hard fault: the cell is pinned at G_max
  /// (stuck-at-LRS) or G_min (stuck-at-HRS) and later `program*` calls
  /// cannot move it (re-programming a defective cell has no effect).
  void force_stuck_lrs(const ReramSpec& spec);
  void force_stuck_hrs(const ReramSpec& spec);

  /// True when the cell carries an injected permanent fault.
  bool hard_faulted() const { return hard_fault_; }

  /// The conductance requested (post-clamp, pre-quantization).
  double target_g() const { return target_g_; }

  /// The static programmed conductance (no read noise).
  double programmed_g() const { return programmed_g_; }

  /// One read observation: programmed conductance plus fresh read
  /// noise, clamped to be non-negative.
  double read_g(const ReramSpec& spec, Rng& rng) const;

  /// Conductance after `elapsed` seconds of retention (power-law
  /// drift; identity when the spec disables drift or the cell is
  /// hard-faulted).
  double drifted_g(const ReramSpec& spec, double elapsed) const;

  /// Effective conductance seen from the bitline through the 1T1R
  /// access transistor: series combination 1/(R_cell + R_on).
  double effective_g(const ReramSpec& spec) const;

 private:
  double target_g_ = 0.0;
  double programmed_g_ = 0.0;
  bool hard_fault_ = false;
};

/// Maps abstract weights in [0, 1] onto the conductance window of a
/// spec: w = 0 -> G_min, w = 1 -> G_max, linear in between, quantized
/// to the spec's level count.
class ConductanceQuantizer {
 public:
  explicit ConductanceQuantizer(const ReramSpec& spec);

  /// Ideal (unquantized) conductance for weight w in [0, 1]; clamps w.
  double weight_to_g(double w) const;

  /// Nearest-level conductance for weight w in [0, 1].
  double weight_to_g_quantized(double w) const;

  /// Inverse map: conductance -> weight in [0, 1] (clamped).
  double g_to_weight(double g) const;

  /// Quantization step between adjacent levels (siemens).
  double step() const { return step_; }

  int levels() const { return levels_; }

 private:
  double g_min_;
  double g_max_;
  double step_;
  int levels_;
};

}  // namespace resipe::device
