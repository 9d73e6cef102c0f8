// Roofline model: machine calibration, per-kernel achieved rates and
// the combined report (JSON + ASCII), plus flamegraph-compatible
// folded-stack export of the ScopedTimer call tree.
//
// The report joins three sources:
//   * the call tree folded across pool workers (analytic FLOPs / bytes /
//     elapsed ns per span, summed per kernel name),
//   * a one-shot machine calibration (STREAM-style triad bandwidth and
//     an FMA-chain peak-FLOPs micro-bench, plus a stable fingerprint),
//   * optional hardware counters (PerfCounterGroup) for IPC and cache
//     behavior over the measured region.
//
// Per kernel it reports achieved GFLOP/s, GB/s and arithmetic intensity
// (FLOP/byte) — all three derived from the same flops/bytes/seconds, so
// GFLOP/s == intensity * GB/s holds to rounding by construction — and
// classifies the kernel compute- vs memory-bound against the machine's
// ridge point.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "resipe/perf/perf_counters.hpp"
#include "resipe/telemetry/timer.hpp"

namespace resipe::perf {

/// Calibrated machine ceilings + identity.
struct MachineProfile {
  double peak_gflops = 0.0;  ///< FMA-chain micro-bench (single core)
  double peak_gbs = 0.0;     ///< STREAM-triad bandwidth (single core)
  std::string cpu_model;     ///< /proc/cpuinfo "model name" (or "unknown")
  std::size_t cores = 0;     ///< hardware_concurrency
  std::string fingerprint;   ///< "cpu_model;cores;word=8" identity string
  std::string fingerprint_hash;  ///< FNV-1a 64 of fingerprint, hex

  /// Arithmetic intensity at which the machine turns compute-bound.
  double ridge() const {
    return peak_gbs > 0.0 ? peak_gflops / peak_gbs : 0.0;
  }
};

/// Machine identity without running the calibration loops.
std::string machine_fingerprint();

/// One-shot calibration micro-bench.  `ms_per_bench` bounds the time
/// spent per ceiling (the loops repeat until the budget is used, best
/// rate wins); `stream_doubles` sizes the triad arrays (3 arrays of
/// this many doubles — keep it well past LLC for a bandwidth number).
MachineProfile calibrate_machine(double ms_per_bench = 60.0,
                                 std::size_t stream_doubles = 1 << 22);

/// Achieved rates for one kernel region.
struct KernelRates {
  std::string name;
  std::uint64_t calls = 0;
  double seconds = 0.0;
  double flops = 0.0;
  double bytes = 0.0;
  double gflops = 0.0;     ///< achieved, 0 when untimed
  double gbs = 0.0;        ///< achieved, 0 when untimed
  double intensity = 0.0;  ///< FLOP/byte (shape property, time-free)
  bool timed = false;      ///< work was booked by a timed span
  bool memory_bound = false;
  double attainable_gflops = 0.0;  ///< roofline ceiling at this intensity
  double efficiency = 0.0;         ///< achieved / attainable
};

/// The full report.
struct RooflineReport {
  MachineProfile machine;
  PerfCounts counters;  ///< whole measured region (available may be false)
  std::vector<KernelRates> kernels;

  /// Aligned table + ASCII roofline chart (log-log, '*' markers).
  std::string render_ascii() const;
  void write_json(std::ostream& os) const;
  void write_json_file(const std::string& path) const;
};

/// Builds per-kernel rates from a call tree: every node with work, summed
/// per span name wherever it sits.  Spans without work are omitted.
RooflineReport build_roofline_report(const telemetry::CallProfile& profile,
                                     const MachineProfile& machine,
                                     const PerfCounts& counters = {});

/// Folded-stack (Brendan Gregg flamegraph.pl) rendering of a call-tree
/// profile: one `a;b;c <microseconds>` line per node, self time (total
/// minus children).  Feed straight into flamegraph.pl or speedscope.
std::string folded_stacks(const telemetry::CallProfile& profile);
void write_folded_stacks_file(const std::string& path,
                              const telemetry::CallProfile& profile);

}  // namespace resipe::perf
