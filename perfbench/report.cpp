// Metric emission and the traced-run report sections shared by the
// workloads.  The metric names and units here are the ones BENCHMARK.json
// declares.
#include <cmath>
#include <cstdio>
#include <sstream>

#include "workloads.hpp"

namespace perfbench {

std::string format_ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
  return buf;
}

std::string format_pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

void emit_end_to_end(const EndToEnd& e, Outcome& out) {
  const double ok_frac =
      out.attempted == 0
          ? 0.0
          : 1.0 - static_cast<double>(out.failed) /
                      static_cast<double>(out.attempted);
  out.add("images_per_s", e.images_per_s, "1/s");
  out.add("requests_per_s", e.requests_per_s, "1/s");
  out.add("batch_ms", e.batch_ms, "ms");
  out.add("virtual_latency_cycles", e.virtual_latency_cycles, "cycles");
  out.add("served_frac", e.served_frac, "fraction");
  out.add("setup_s", e.setup_s, "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  out.add("ok_frac", ok_frac, "fraction");
  out.add("argmax_agree", e.argmax_agree, "fraction");
}

void emit_per_layer(const PerLayer& p, Outcome& out) {
  const MatrixBreakdown& m = p.matrix;
  const double per = p.per > 0.0 ? p.per : 1.0;
  const double ratio_rows =
      m.rows == 0 ? 0.0
                  : static_cast<double>(m.active_rows) /
                        static_cast<double>(m.rows);
  const double ratio_groups =
      m.groups == 0 ? 0.0
                    : static_cast<double>(m.groups_woken) /
                          static_cast<double>(m.groups);
  out.add("step.matrix_s", p.step_matrix_s, "s");
  out.add("step.func_s", p.step_func_s, "s");
  out.add("step.sum_error_frac", p.step_sum_error_frac, "fraction");
  out.add("conv.gather_s", m.gather_s / per, "s");
  out.add("conv.scatter_s", m.scatter_s / per, "s");
  out.add("matrix.forward_batch_s", m.forward_batch_s / per, "s");
  out.add("matrix.encode_s", m.encode_s / per, "s");
  out.add("fast_mvm.kernel_s", m.kernel_s / per, "s");
  out.add("matrix.glue_s", (m.forward_batch_s - m.encode_s - m.kernel_s) / per,
          "s");
  out.add("fast_mvm.share",
          m.forward_batch_s > 0.0 ? m.kernel_s / m.forward_batch_s : 0.0,
          "fraction");
  out.add("fast_mvm.gflop_per_s",
          m.kernel_s > 0.0 ? m.kernel_flops / m.kernel_s * 1e-9 : 0.0,
          "GFLOP/s");
  out.add("events.active_row_frac", ratio_rows, "fraction");
  out.add("events.group_wake_frac", ratio_groups, "fraction");
  out.add("events.queue_build_s", m.queue_build_s / per, "s");
  out.add("events.speedup_vs_dense", p.events_speedup_vs_dense, "x");
  out.add("parallel.efficiency", p.parallel_efficiency, "fraction");
  out.add("serve.infer_s", p.serve_infer_s, "s");
  out.add("serve.probe_s", p.serve_probe_s, "s");
  out.add("serve.sched_self_s", p.serve_sched_self_s, "s");
  out.add("serve.batches", p.serve_batches, "count");
  out.add("serve.mean_batch", p.serve_mean_batch, "count");
  out.add("serve.probe_rounds", p.serve_probe_rounds, "count");
  out.add("serve.probe_round_s", p.serve_probe_round_s, "s");
  out.add("lower.program_s", p.lower_program_s, "s");
  out.add("lower.calibrate_s", p.lower_calibrate_s, "s");
  out.add("lower.cells", p.lower_cells, "count");
  out.add("lower.calib_forward_s", p.lower_calib_forward_s, "s");
  out.add("trace.overhead_frac", p.trace_overhead_frac, "fraction");
  out.add("latency.batch_p90_ms", p.batch_p90_ms, "ms");
  out.add("latency.batch_p99_ms", p.batch_p99_ms, "ms");
  out.add("host.speed_factor", p.host_speed_factor, "x");
}

std::string render_step_table(const StepClock& clock, double calls,
                              double forward_total_s, const char* unit_label) {
  std::ostringstream os;
  const double steps_total = clock.total_s();
  os << "Per-step table (" << unit_label << "; rows sum to the measured "
     << "forward total within " << format_pct(kStepSumTolerance) << ")\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %4s  %-40s %12s %8s\n", "step", "kind",
                "ms", "share");
  os << line;
  for (std::size_t i = 0; i < clock.rows().size(); ++i) {
    const StepClock::Row& r = clock.rows()[i];
    std::snprintf(line, sizeof(line), "  %4zu  %-40s %12.4f %8s\n", i,
                  r.kind.c_str(), r.seconds / calls * 1e3,
                  format_pct(steps_total > 0 ? r.seconds / steps_total : 0.0)
                      .c_str());
    os << line;
  }
  const double err = forward_total_s > 0.0
                         ? std::abs(steps_total - forward_total_s) /
                               forward_total_s
                         : 0.0;
  os << "  sum of steps " << format_ms(steps_total / calls)
     << " vs forward total " << format_ms(forward_total_s / calls)
     << " (error " << format_pct(err) << ", tolerance "
     << format_pct(kStepSumTolerance) << "); matrix steps "
     << format_ms(clock.matrix_s() / calls) << ", functional steps "
     << format_ms(clock.func_s() / calls) << "\n";
  return os.str();
}

std::string render_matrix_section(const PerLayer& p, const char* unit_label) {
  const MatrixBreakdown& m = p.matrix;
  const double per = p.per > 0.0 ? p.per : 1.0;
  const double fb = m.forward_batch_s;
  const double glue = fb - m.encode_s - m.kernel_s;
  const auto share = [&](double v) { return format_pct(fb > 0 ? v / fb : 0.0); };
  std::ostringstream os;
  os << "One-thread replay of the matrix steps (" << unit_label << ")\n"
     << "  conv gather " << format_ms(m.gather_s / per) << ", forward_batch "
     << format_ms(fb / per) << ", conv scatter " << format_ms(m.scatter_s / per)
     << "\n"
     << "Amdahl line: forward_batch " << format_ms(fb / per) << " = encode "
     << format_ms(m.encode_s / per) << " (" << share(m.encode_s) << ")"
     << " + FastMvm kernel " << format_ms(m.kernel_s / per) << " ("
     << share(m.kernel_s) << ", estimate on stand-in tiles, "
     << (m.kernel_s > 0 ? m.kernel_flops / m.kernel_s * 1e-9 : 0.0)
     << " GFLOP/s)"
     << " + glue (recovery, decode, staging) " << format_ms(glue / per) << " ("
     << share(glue) << ")\n"
     << "Events: active rows "
     << format_pct(m.rows ? static_cast<double>(m.active_rows) /
                                static_cast<double>(m.rows)
                          : 0.0)
     << ", tiles woken "
     << format_pct(m.groups ? static_cast<double>(m.groups_woken) /
                                  static_cast<double>(m.groups)
                            : 0.0)
     << ", queue build " << format_ms(m.queue_build_s / per)
     << ", event engine speed-up vs dense " << p.events_speedup_vs_dense
     << "x\n"
     << "Lowering: program " << p.lower_program_s << " s, calibrate "
     << p.lower_calibrate_s << " s, software forward of the calibration "
     << "batch " << p.lower_calib_forward_s << " s, " << p.lower_cells
     << " cells\n"
     << "Parallel efficiency " << p.parallel_efficiency
     << ", tracing overhead " << format_pct(p.trace_overhead_frac)
     << ", host speed factor " << p.host_speed_factor
     << " (per-layer times are raw host times)\n";
  return os.str();
}

}  // namespace perfbench
