// The benchmark's workloads.  Each builds its inputs from the seed,
// sets up the program, captures reference outputs at one thread, times
// the public entry point for opt.seconds, and checks every timed output
// bit for bit against the reference.  With opt.trace the same run also
// takes the per-layer breakdown and writes the traced-run report.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "speed.hpp"

namespace perfbench {

/// Tolerance on |sum of step times - forward total| / forward total in
/// the traced run's per-step table.
inline constexpr double kStepSumTolerance = 0.05;

/// setup_s is the median of kSetupSamples samples spread evenly through
/// the timed window; set-ups taken back to back would all land in one
/// contention phase of a shared machine.  Each sample times enough
/// back-to-back set-ups to last about kSetupSampleS and is scaled to
/// reference-machine time (speed.hpp) by one-thread probes run right
/// before and after it.  Set-up runs on one thread, and on a shared
/// virtual machine one thread's speed swings up to 2x from second to
/// second while the median over a window of calls hardly moves, so only
/// a probe next to the sample tracks it.  The untraced window is extended
/// by the time the samples take.
inline constexpr std::size_t kSetupSamples = 12;
inline constexpr double kSetupSampleS = 0.25;

class SetupSampler {
 public:
  explicit SetupSampler(double window_s)
      : interval_(window_s / static_cast<double>(kSetupSamples)) {}

  /// Times the program's own set-up, which sizes the samples.  It is cold
  /// (first allocation of everything) and is not one of the samples.
  template <class F>
  void first(F&& setup) {
    const double t0 = now_s();
    setup();
    const double dt = now_s() - t0;
    reps_ = static_cast<std::size_t>(
        std::max(1.0, std::ceil(kSetupSampleS / dt)));
  }

  /// Between timed calls: takes a sample when one is due (the first half
  /// an interval after `start`) and returns the seconds it took, else 0.
  template <class F>
  double maybe(double start, F&& setup) {
    const double due = start + interval_ * (static_cast<double>(taken_) + 0.5);
    if (taken_ >= kSetupSamples || now_s() < due) return 0.0;
    ++taken_;
    const double t0 = now_s();
    const double before = probe_.run();
    const double t1 = now_s();
    for (std::size_t i = 0; i < reps_; ++i) setup();
    const double dt = now_s() - t1;
    const double after = probe_.run();
    times_.push_back(dt / static_cast<double>(reps_) * kProbeReferenceS /
                     (0.5 * (before + after)));
    return now_s() - t0;
  }

  /// Median sample, in reference-machine seconds per set-up.
  double median_s() const { return median(times_); }

 private:
  double interval_;
  std::size_t reps_ = 1;
  std::size_t taken_ = 0;
  std::vector<double> times_;
  SpeedProbe probe_{1};
};

/// ResipeNetwork::forward on whole batches: cifar_vgg16, mnist_events.
Outcome run_network_workload(const Options& opt);

/// serve::Scheduler::run over a chip pool: mnist_serve.
Outcome run_serve_workload(const Options& opt);

/// Workload names run_network_workload accepts.
std::vector<std::string> network_workloads();

/// End-to-end metrics of an untraced run (see README.md for what each
/// means on each workload).  images_per_s, requests_per_s and batch_ms
/// are one measurement, the median call or replay, in three units.
struct EndToEnd {
  double images_per_s = 0.0;
  double requests_per_s = 0.0;
  double batch_ms = 0.0;
  /// Simulated time in clock cycles: p99 request latency on mnist_serve,
  /// the modelled latency of one batch on the network workloads.
  double virtual_latency_cycles = 0.0;
  double served_frac = 0.0;
  double setup_s = 0.0;
  double argmax_agree = 0.0;
};
/// Adds every end-to-end metric to `out` (ok_frac and peak_rss_mb are
/// taken from `out` and the process).
void emit_end_to_end(const EndToEnd& e, Outcome& out);

/// Per-layer metrics of a traced run.  A layer a workload does not
/// exercise reads 0.
struct PerLayer {
  double step_matrix_s = 0.0, step_func_s = 0.0, step_sum_error_frac = 0.0;
  MatrixBreakdown matrix;  ///< one-thread replay totals
  double per = 1.0;        ///< divisor turning replay totals into per-unit
  double events_speedup_vs_dense = 0.0;
  double parallel_efficiency = 0.0;
  double serve_infer_s = 0.0, serve_probe_s = 0.0, serve_sched_self_s = 0.0;
  double serve_batches = 0.0, serve_mean_batch = 0.0, serve_probe_rounds = 0.0;
  double serve_probe_round_s = 0.0;  ///< one run_probe_round, timed apart
  double lower_program_s = 0.0, lower_calibrate_s = 0.0, lower_cells = 0.0;
  double lower_calib_forward_s = 0.0;
  double trace_overhead_frac = 0.0;
  double batch_p90_ms = 0.0, batch_p99_ms = 0.0;  ///< host tail latency
  double host_speed_factor = 0.0;  ///< SpeedProbe::factor() of the run
};
void emit_per_layer(const PerLayer& p, Outcome& out);

/// Report sections shared by the workloads.
std::string render_step_table(const StepClock& clock, double calls,
                              double forward_total_s, const char* unit_label);
std::string render_matrix_section(const PerLayer& p, const char* unit_label);
std::string format_ms(double seconds);
std::string format_pct(double fraction);

}  // namespace perfbench
