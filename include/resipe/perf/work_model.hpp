// Kernel work accounting: analytic FLOP/byte models for the hot-path
// kernels, aggregated per region into a process-wide registry.
//
// The telemetry layer (PR 1) can say *where* time goes; this layer says
// *why* — every annotated kernel records, next to its elapsed time, the
// analytic number of floating-point operations and bytes of algorithmic
// memory traffic the call performed, so a profile region can report
// achieved GFLOP/s, GB/s and arithmetic intensity and a roofline model
// can classify it compute- vs memory-bound.
//
// Accounting is opt-in (set_accounting_enabled / RESIPE_PERF=1) and
// rides the telemetry build flag: with -DRESIPE_TELEMETRY=OFF every
// macro below compiles away and the registry is never touched.  The
// models only *count* — they never read or write kernel data — so
// enabling accounting cannot perturb results (pinned by the
// perf_accounting_identity fuzzer contract).
//
//   RESIPE_PERF_KERNEL("resipe_core.fast_mvm.mvm_times",
//                      fast_mvm_cost(rows, cols));   // RAII: time + work
//   RESIPE_PERF_WORK("resipe_core.spike_codec.encode",
//                    spike_encode_cost());           // work only
//
// Region names deliberately match the RESIPE_TELEM_SCOPE span names so
// call-tree profile nodes and work entries join on the same key.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "resipe/telemetry/timer.hpp"

namespace resipe::perf {

/// Analytic cost of one kernel call.  `flops` counts double-precision
/// arithmetic operations (exp/log/div each count as one); `bytes`
/// counts algorithmic traffic — every operand load and result store at
/// double width, matrix operands assumed streamed from memory once per
/// pass, register/cache reuse inside one pass not double-counted.
struct WorkCost {
  double flops = 0.0;
  double bytes = 0.0;
};

// --- per-kernel analytic models ----------------------------------------
//
// The constants below are the documented contract: tests hand-count
// them on small shapes and the roofline report depends on them, so a
// change to a kernel's inner loop must update its model (and the test)
// in the same commit.

/// FastMvm::mvm_times, one sample over a rows x cols conductance matrix:
///   S1 wordline ramp:  4 flops per row   (guard compare, exp/min ramp,
///                                         multiply, subtract)
///   current sums:      2 flops per cell  (multiply + add)
///   S2 recovery:      10 flops per column (v_eq, v_cog, threshold,
///                                          crossing log chain, delay,
///                                          slice compare)
/// bytes: read t_in + write v_wl (2*rows), stream the matrix and re-read
/// v_wl per column (2*rows*cols), per-column constants g_total/k/offset
/// (3*cols), write t_out (cols) — all at 8 bytes.
WorkCost fast_mvm_cost(std::size_t rows, std::size_t cols);

/// FastMvm::mvm_times_batch over n samples: flops are exactly n single
/// calls; bytes differ because each column's weights stream once per
/// *batch*, not once per sample:
///   8 * (2*n*rows  +  rows*cols  +  n*rows*cols  +  3*cols  +  3*n*cols)
/// (t_in/v_wl staging, one matrix pass, per-sample v_wl re-reads,
/// per-column constants, weighted store+load and t_out stores).
WorkCost fast_mvm_batch_cost(std::size_t rows, std::size_t cols,
                             std::size_t n);

/// ResipeTile::execute (faithful per-cell model), one MVM:
///   GD decode 6 flops/row, column drives 4 flops/cell, COG conversion
///   12 flops/column; bytes 8 * (2*rows + 2*rows*cols + 2*cols).
WorkCost tile_execute_cost(std::size_t rows, std::size_t cols);

/// SpikeCodec::encode / decode, one value: constant small cost
/// (ramp crossing / ramp voltage chain + clamps).
WorkCost spike_encode_cost();
WorkCost spike_decode_cost();

/// events::EventQueue::build over n input lines: the activity
/// predicate (2 compares + the slice bound, counted as 3 flops per
/// line); bytes read the times and write up to one event per line
/// (time + row at double width, conservatively).
WorkCost event_queue_build_cost(std::size_t rows);

/// FastMvm::mvm_times_sparse with `active` woken rows over cols
/// columns: S1 wordline ramp 4 flops per active row, current sums
/// 2 flops per active cell, S2 recovery 10 flops per column; bytes
/// read the wake set + staged times, stream only the active rows of
/// the matrix, and keep the dense per-column constant/output traffic.
WorkCost event_mvm_sparse_cost(std::size_t active, std::size_t cols);

/// FastMvm::idle_times (a sleeping column group): S2 recovery only,
/// 10 flops per column; bytes the per-column constants + output.
WorkCost event_idle_cost(std::size_t cols);

/// Skipped-group resolution in ProgrammedMatrix's event strategy: one
/// add per column from the baked idle-recovery constants; bytes read
/// the constants and read-modify-write the accumulator.
WorkCost event_idle_resolve_cost(std::size_t cols);

/// crossbar::drives_with_ir_drop: per cell the wire-divider effective_g
/// (6 flops) plus the two accumulations (3 flops), per column the v_eq
/// division (2 flops); bytes 8 * (rows + rows*cols + 2*cols).
WorkCost ir_drop_solve_cost(std::size_t rows, std::size_t cols);

/// circuits::transient_mac RK4 reference (approximate — the S1 segment
/// count depends on spike arrival times): per RK4 step of the n-input
/// COG node 4 derivative evaluations at 3*n flops plus the 10-flop
/// state update, S1/S2 ramp integrations at 18 flops per step.
WorkCost transient_mac_cost(std::size_t inputs, std::size_t steps);

// --- runtime switch ----------------------------------------------------

namespace detail {
/// -1 = unresolved, 0 = off, 1 = on.
extern std::atomic<int> g_accounting;
bool resolve_accounting() noexcept;
}  // namespace detail

/// True when kernels should record work.  First call resolves the
/// RESIPE_PERF environment variable ("1"/"on" enables); afterwards one
/// relaxed atomic load.  Off by default: the disabled cost of an
/// annotated kernel is a single predicted branch.
inline bool accounting_enabled() noexcept {
  const int state = detail::g_accounting.load(std::memory_order_relaxed);
  if (state >= 0) return state != 0;
  return detail::resolve_accounting();
}

/// Overrides the environment toggle for this process.
void set_accounting_enabled(bool on) noexcept;

// --- registry ----------------------------------------------------------

/// Accumulated work for one kernel region.  Thread-safe; names follow
/// the ScopedTimer span names so profiles and work join on the key.
class KernelWork {
 public:
  /// Adds one call's analytic cost (`calls` lets batch loops account a
  /// whole batch with one add).
  void add_work(const WorkCost& c, std::uint64_t calls = 1) noexcept {
    calls_.fetch_add(calls, std::memory_order_relaxed);
    flops_.fetch_add(c.flops, std::memory_order_relaxed);
    bytes_.fetch_add(c.bytes, std::memory_order_relaxed);
  }
  /// Adds elapsed wall time attributed to this kernel.
  void add_time(std::uint64_t ns) noexcept {
    ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  std::uint64_t calls() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }
  std::uint64_t timed_ns() const noexcept {
    return ns_.load(std::memory_order_relaxed);
  }
  double flops() const noexcept {
    return flops_.load(std::memory_order_relaxed);
  }
  double bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    calls_.store(0, std::memory_order_relaxed);
    ns_.store(0, std::memory_order_relaxed);
    flops_.store(0.0, std::memory_order_relaxed);
    bytes_.store(0.0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> ns_{0};
  std::atomic<double> flops_{0.0};
  std::atomic<double> bytes_{0.0};
};

/// Point-in-time copy of one registry entry.
struct KernelWorkSnapshot {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t timed_ns = 0;
  double flops = 0.0;
  double bytes = 0.0;
};

/// Process-wide work registry.  Same contract as MetricRegistry:
/// lookup registers on first use, references stay valid for the life
/// of the process, reset_values() zeroes but never removes.
class WorkRegistry {
 public:
  static WorkRegistry& instance();

  KernelWork& kernel(std::string_view name);
  std::vector<KernelWorkSnapshot> snapshot() const;
  void reset_values();

 private:
  WorkRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<KernelWork>, std::less<>> kernels_;
};

/// RAII kernel span: measures elapsed time into a KernelWork entry and,
/// when the cost is non-zero, books one call's work on exit.  A
/// zero-cost scope only contributes time — used to time a region whose
/// work is accounted at finer grain inside it (e.g. a codec loop).
class WorkScope {
 public:
  explicit WorkScope(KernelWork& kernel, WorkCost cost = {}) noexcept
      : kernel_(kernel), cost_(cost), active_(accounting_enabled()) {
    if (active_) start_ns_ = telemetry::now_ns();
  }
  ~WorkScope() {
    if (!active_) return;
    kernel_.add_time(telemetry::now_ns() - start_ns_);
    if (cost_.flops != 0.0 || cost_.bytes != 0.0) kernel_.add_work(cost_);
  }

  /// Replaces the cost booked at scope exit (for kernels whose cost is
  /// only known mid-body).
  void set_cost(const WorkCost& cost) noexcept { cost_ = cost; }

  WorkScope(const WorkScope&) = delete;
  WorkScope& operator=(const WorkScope&) = delete;

 private:
  KernelWork& kernel_;
  WorkCost cost_;
  bool active_ = false;
  std::uint64_t start_ns_ = 0;
};

}  // namespace resipe::perf

#if defined(RESIPE_TELEMETRY_DISABLED)

#define RESIPE_PERF_KERNEL(name, ...) \
  do {                                \
  } while (false)
#define RESIPE_PERF_WORK(name, ...) \
  do {                              \
  } while (false)

#else

#define RESIPE_PERF_CONCAT_IMPL(a, b) a##b
#define RESIPE_PERF_CONCAT(a, b) RESIPE_PERF_CONCAT_IMPL(a, b)

/// RAII: elapsed time + one call's analytic cost into the named kernel.
/// The cost expression is only evaluated when accounting is enabled.
#define RESIPE_PERF_KERNEL(name, ...)                                     \
  static ::resipe::perf::KernelWork& RESIPE_PERF_CONCAT(                  \
      resipe_perf_kernel_, __LINE__) =                                    \
      ::resipe::perf::WorkRegistry::instance().kernel(name);              \
  ::resipe::perf::WorkScope RESIPE_PERF_CONCAT(resipe_perf_scope_,        \
                                               __LINE__)(                 \
      RESIPE_PERF_CONCAT(resipe_perf_kernel_, __LINE__),                  \
      ::resipe::perf::accounting_enabled()                                \
          ? (__VA_ARGS__)                                                 \
          : ::resipe::perf::WorkCost{})

/// Work-only accounting (no timing) for ns-scale call sites; the cost
/// expression is only evaluated when accounting is enabled.
#define RESIPE_PERF_WORK(name, ...)                                       \
  do {                                                                    \
    if (::resipe::perf::accounting_enabled()) {                           \
      static ::resipe::perf::KernelWork& resipe_perf_work_kernel_ =       \
          ::resipe::perf::WorkRegistry::instance().kernel(name);          \
      resipe_perf_work_kernel_.add_work(__VA_ARGS__);                     \
    }                                                                     \
  } while (false)

#endif  // RESIPE_TELEMETRY_DISABLED
