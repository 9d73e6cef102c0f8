// Analytic FLOP/byte models for the hot-path kernels.
//
// The telemetry layer says *where* time goes; these models say *why*:
// every annotated kernel books, next to its span's elapsed time, the
// analytic number of floating-point operations and bytes of algorithmic
// memory traffic the call performed, so a profile node can report
// achieved GFLOP/s, GB/s and arithmetic intensity and a roofline model
// can classify it compute- vs memory-bound.  The work rides the
// telemetry switch and call tree (telemetry.hpp):
//
//   RESIPE_TELEM_SCOPE("resipe_core.fast_mvm.mvm_times",
//                      perf::fast_mvm_cost(rows, cols));  // time + work
//   RESIPE_TELEM_WORK("resipe_core.spike_codec.encode",
//                     perf::spike_encode_cost());         // work only
//
// The models only *count* — they never read or write kernel data — so
// switching telemetry on cannot perturb results (pinned by the
// perf_accounting_identity fuzzer contract).
#pragma once

#include <cstddef>

#include "resipe/telemetry/timer.hpp"

namespace resipe::perf {

/// Analytic cost of one kernel call.  `flops` counts double-precision
/// arithmetic operations (exp/log/div each count as one); `bytes`
/// counts algorithmic traffic — every operand load and result store at
/// double width, matrix operands assumed streamed from memory once per
/// pass, register/cache reuse inside one pass not double-counted.
using telemetry::WorkCost;

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

/// The two stages of FastMvm::mvm_times_batch, which sum to
/// fast_mvm_batch_cost exactly: S1 (FastMvm::wordline, booked over the
/// n * rows times it converts) is the ramp and the t_in/v_wl staging
/// (4*n*rows flops, 8 * 2*n*rows bytes); mvm_voltages_batch is the rest
/// (the current sums, S2 recovery, the matrix pass, the v_wl re-reads
/// and the per-column traffic), booked over the rows its row list
/// holds, so a list of active rows costs its length and an empty one S2
/// recovery alone.
WorkCost fast_mvm_wordline_cost(std::size_t rows, std::size_t n);
WorkCost fast_mvm_voltages_cost(std::size_t rows, std::size_t cols,
                                std::size_t n);

/// FastMvm::driven_rows over `rows` rows and n samples: the nonzero
/// test, 1 flop per voltage; bytes read every voltage and write one row
/// index per row (at double width, conservatively): 8 * (n*rows + rows).
WorkCost fast_mvm_driven_rows_cost(std::size_t rows, std::size_t n);

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

/// crossbar::drives_with_ir_drop: per cell the wire-divider effective_g
/// (6 flops) plus the two accumulations (3 flops), per column the v_eq
/// division (2 flops); bytes 8 * (rows + rows*cols + 2*cols).
WorkCost ir_drop_solve_cost(std::size_t rows, std::size_t cols);

/// circuits::transient_mac RK4 reference (approximate — the S1 segment
/// count depends on spike arrival times): per RK4 step of the n-input
/// COG node 4 derivative evaluations at 3*n flops plus the 10-flop
/// state update, S1/S2 ramp integrations at 18 flops per step.
WorkCost transient_mac_cost(std::size_t inputs, std::size_t steps);

}  // namespace resipe::perf
