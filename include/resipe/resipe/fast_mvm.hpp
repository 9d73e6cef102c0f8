// Flattened single-spiking MVM executor for network-scale inference.
//
// ResipeTile is the faithful object-per-cell model; running a VGG-class
// network through it would spend most of its time chasing ReramCell
// objects.  FastMvm snapshots a programmed crossbar into flat arrays
// and precomputes everything input-independent:
//
//   * the effective conductance matrix (post variation, post 1T1R),
//   * per-column total conductance g_tot_j,
//   * per-column saturation factor k_j = 1 - exp(-dt * g_tot_j / Ccog),
//
// so one MVM costs one dot product per column plus one log for the S2
// inversion.
//
// Every MVM is the same two stages: S1 (the GD ramp sets the wordline
// voltages) and the voltage stage (the column current sums, then the S2
// inversion to output spike times).  Each stage takes n samples, the
// kernel path and the set of vector-width row chunks to visit; single,
// batched, sparse (the chunks holding the wake set) and idle (no
// chunks) MVMs are calls of the two stages.  A row outside the visited
// chunks is silent, so it would add exactly +0.0 to every sum.
//
// Each stage has two bodies:
//
//   * the scalar reference — row-ascending sums, bit-identical to
//     ResipeTile::execute for the same programmed array (asserted by
//     the property tests), and what you get from a scalar build or
//     RESIPE_SIMD=scalar;
//   * the SIMD body (default on vector builds) — cache-blocked,
//     FMA-vectorized over width-padded column-major storage.  Its row
//     sums fold in vector-lane order and its exp/log are the polynomial
//     forms from common/simd.hpp, so outputs may differ from the
//     reference by a bounded reassociation/rounding error.  The
//     `simd_equivalence` verify contract pins that bound.
//
// Because every entry point runs the same bodies, batch == single
// holds bitwise on either path, and so do sparse and idle calls against
// the dense call on the input they stand for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "resipe/circuits/params.hpp"
#include "resipe/common/simd.hpp"
#include "resipe/crossbar/crossbar.hpp"

namespace resipe::resipe_core {

/// Immutable snapshot of a programmed tile, optimized for repeated MVMs.
class FastMvm {
 public:
  /// Cache-line-aligned storage so the vector kernels can use aligned
  /// loads over the padded arrays.
  using aligned_vector = std::vector<double, simd::AlignedAllocator<double>>;

  /// Snapshots the effective conductances of `xbar` under `params`.
  /// Throws if the crossbar has zero rows or columns.
  FastMvm(const circuits::CircuitParams& params,
          const crossbar::Crossbar& xbar);

  /// Direct construction from a flat row-major effective-conductance
  /// matrix (used by the layer executor, which programs virtual tiles
  /// without instantiating Crossbar objects per block).  Throws if
  /// rows or cols is zero.
  FastMvm(const circuits::CircuitParams& params, std::size_t rows,
          std::size_t cols, std::vector<double> g_effective);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const circuits::CircuitParams& params() const { return params_; }
  double g_total(std::size_t col) const { return g_total_[col]; }

  /// Per-column saturation factor k_j = 1 - exp(-dt * g_total_j / Ccog)
  /// (or its dt/tau linearization in linear mode).  Together with
  /// g_total this is the per-column calibration trim that converts a
  /// sampled COG voltage back into the raw current-sum:
  ///   sum_i(V_i G_ij) = V_cog,j * g_total_j / k_j.
  double k(std::size_t col) const { return k_[col]; }

  /// Reads output spike times back as raw current-sums through that
  /// trim: rec[c] += V_cog(t) * g_total / k for every data column c
  /// with k > 0, where V_cog is the output ramp voltage at t and a
  /// silent column (kNoSpike) books the slice boundary.  Column c reads
  /// t_slots, g_total and k at slot slot_of_col[c] (identity when
  /// empty), the physical column it was placed on.  `vector` selects
  /// the SIMD evaluation (simd::exp over column chunks, in the scalar
  /// expression's order) over the scalar reference (ramp_voltage).
  void add_current_sums(std::span<const double> t_slots,
                        std::span<const std::size_t> slot_of_col,
                        std::span<double> rec,
                        bool vector = simd::enabled()) const;

  /// Installs per-column comparator input offsets (volts, one per
  /// column) — the COG cluster's device mismatch.  They add to the
  /// global params.comparator_offset.
  void set_column_offsets(std::vector<double> offsets);

  /// Converts input spike times (seconds, one per row; use
  /// `kNoSpike` = infinity for silent lines) into output spike times.
  /// Outputs that would fall outside the slice are reported as
  /// `kNoSpike`.
  void mvm_times(std::span<const double> t_in, std::span<double> t_out) const;

  /// Reusable scratch for mvm_times_batch.  Hoist one per worker (e.g.
  /// thread_local) so steady-state batched MVMs never touch the heap.
  /// Layout is an implementation detail of the selected kernel path.
  struct BatchScratch {
    aligned_vector v_wl;      // wordline voltages (padded per sample)
    aligned_vector weighted;  // per-column current sums (SIMD path)
    aligned_vector t_cols;    // padded per-sample outputs (SIMD path)
  };

  /// Batched mvm_times: `t_in` is row-major [n, rows], `t_out` is
  /// row-major [n, cols].  Bit-identical per sample to n calls of
  /// mvm_times — both run the same two stages — but the matrix is
  /// walked in cache-sized column blocks reused across the whole batch,
  /// with several samples accumulated per matrix load.  Exactly
  /// wordline_batch followed by mvm_voltages_batch.
  void mvm_times_batch(std::span<const double> t_in, std::size_t n,
                       std::span<double> t_out, BatchScratch& scratch) const;

  /// The S1 stage of mvm_times_batch: the wordline voltages of n
  /// samples (`t_in` row-major [n, rows]) on the active kernel path,
  /// written to `v_wl` as [n, rows rounded up to the vector width] with
  /// zero padding.  They depend only on the circuit parameters and the
  /// input, so they can feed mvm_voltages_batch of every FastMvm with
  /// the same rows and parameters — the tiles sharing a row window.
  void wordline_batch(std::span<const double> t_in, std::size_t n,
                      aligned_vector& v_wl) const;

  /// The current-sum + S2 stage of mvm_times_batch, fed wordline
  /// voltages from wordline_batch of this FastMvm or of one with the
  /// same rows and circuit parameters; `t_out` is row-major [n, cols].
  void mvm_voltages_batch(const aligned_vector& v_wl, std::size_t n,
                          std::span<double> t_out,
                          BatchScratch& scratch) const;

  /// Event-driven recovery for a group with no input events: every
  /// wordline held 0 V for the whole slice, so only the per-column
  /// comparator outcome remains — the voltage stage over no row chunks,
  /// O(cols) instead of O(rows x cols).  Bit-identical to mvm_times on
  /// an input whose every row fails the events::EventQueue::carries_spike
  /// predicate (every current sum is then exactly +0.0), run on the
  /// kernel path `vector` selects: the active one by default, either
  /// one when a caller bakes constants for both.
  void idle_times(std::span<double> t_out,
                  bool vector = simd::enabled()) const;

  /// Event-driven MVM: `active_rows` (strictly ascending, group-local
  /// indices, else throws) lists the rows that carry a spike inside the
  /// slice; every other row is guaranteed silent by the caller (its
  /// dense wordline voltage is exactly +0.0).  Runs both stages over
  /// the vector-width row chunks holding the wake set only, which is
  /// bit-identical to mvm_times on the same full input on either kernel
  /// path: a skipped row adds exactly +0.0 to a non-negative sum, and
  /// chunks are never compacted into fewer lanes, so the fixed
  /// FMA/reduction tree — and every rounding — is untouched.  Cost is
  /// O(woken chunks x cols) for the current sums.
  void mvm_times_sparse(std::span<const double> t_in,
                        std::span<const std::uint32_t> active_rows,
                        std::span<double> t_out) const;

  /// The ideal Eq.(6) linear-model times for the same inputs.
  void ideal_times(std::span<const double> t_in,
                   std::span<double> t_out) const;

  static constexpr double kNoSpike =
      std::numeric_limits<double>::infinity();

 private:
  void precompute();

  /// S2 on the scalar path: current-sum -> threshold -> crossing ->
  /// spike time (kNoSpike past the slice; the comparator delay for an
  /// unprogrammed column).  `silent` counts suppressed outputs.
  double recover_time(double weighted, std::size_t col,
                      std::size_t* silent) const;

  /// S2 on the SIMD path for one vector chunk of columns [c, c+W):
  /// reads w[0, W) and the padded per-column arrays at c, writes
  /// out[0, W).  Element-wise per lane, so any chunking of the column
  /// axis yields identical values.
  void recover_block_simd(const double* w, std::size_t c, double* out,
                          std::size_t* silent) const;

  /// S1: the wordline voltages of n samples (`t_in` row-major
  /// [n, rows]) into `v_wl` [n, rows_pad_], on the kernel path `vector`
  /// selects, for the row chunks in `chunks` only; the other chunks of
  /// `v_wl` keep whatever they held.
  template <class Chunks>
  void wordline_stage(const double* t_in, std::size_t n, bool vector,
                      const Chunks& chunks, double* v_wl) const;

  /// Current sums over the row chunks in `chunks`, then S2: n samples
  /// from `v_wl` [n, rows_pad_] into `t_out` row-major [n, cols].
  /// Books the silent outputs; the caller books the MACs.
  template <class Chunks>
  void voltage_stage(const double* v_wl, std::size_t n, bool vector,
                     const Chunks& chunks, double* t_out,
                     BatchScratch& scratch) const;

  circuits::CircuitParams params_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t rows_pad_ = 0;   // rows rounded up to the vector width
  std::size_t cols_pad_ = 0;   // cols rounded up to the vector width
  std::size_t block_cols_ = 0;  // column-block size for batch tiling
  bool has_offsets_ = false;
  aligned_vector g_cm_;     // column-major effective conductances:
                            // g_cm_[c * rows_pad_ + r], zero padding
                            // rows.  Column-major keeps each column's
                            // weights contiguous for the per-column
                            // dot products (single and batched paths).
  aligned_vector g_total_;  // per column, padded with zeros
  aligned_vector k_;        // per-column saturation factor, padded
  aligned_vector offsets_;  // per-column comparator mismatch, padded
};

}  // namespace resipe::resipe_core
