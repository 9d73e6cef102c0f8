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
// so one MVM costs one multiply and one add per cell plus one log per
// column for the S2 inversion.
//
// Every MVM is the same two stages: S1 (the GD ramp sets the wordline
// voltages) and the voltage stage (the column current sums, then the S2
// inversion to output spike times).  Each stage takes n samples and the
// ascending list of rows to visit: mvm_times and mvm_times_batch visit
// every row, wordline_batch and mvm_voltages_batch the rows their
// caller lists, which may be none.  A row left out must be silent, so
// it would add a signed zero to every sum.
//
// Each stage is one body, templated on the vector type and instantiated
// at simd::vdouble and at simd::vscalar (width 1).  Columns sit in the
// lanes, as in the crossbar, where each wordline drives current into
// every column line at once: the voltage stage walks the rows in
// ascending order and adds v * g (a multiply, then an add) into a
// register block of samples x column vectors.  So each column sums its
// rows in the same order with the same operations at either width, and
// the current sums agree bit for bit.  The one divergence is the
// vdouble instance's polynomial exp/log (common/simd.hpp), which the
// `simd_equivalence` verify contract bounds.  The vscalar instance is
// the reference: bit-identical to ResipeTile::execute for the same
// programmed array (asserted by the property tests), and what you get
// from a scalar build or RESIPE_SIMD=scalar.
//
// Because every entry point runs the same bodies, batch == single
// holds bitwise at either width, and so does a call over a row list
// against the full call on an input silent outside the list.
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
  /// The row list of every row, 0 to rows - 1, for the row-list stages.
  std::span<const std::uint32_t> all_rows() const { return all_rows_; }
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
  /// the vdouble instance over the vscalar reference.
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
  /// The current sums live in registers, so only S1's output is kept.
  struct BatchScratch {
    aligned_vector v_wl;  // wordline voltages, [n, rows]
  };

  /// Batched mvm_times: `t_in` is row-major [n, rows], `t_out` is
  /// row-major [n, cols].  Bit-identical per sample to n calls of
  /// mvm_times — both run the same two stages — but each load of a
  /// conductance row feeds several samples.  Exactly wordline_batch
  /// followed by mvm_voltages_batch over every row.
  void mvm_times_batch(std::span<const double> t_in, std::size_t n,
                       std::span<double> t_out, BatchScratch& scratch) const;

  /// The S1 stage of mvm_times_batch over the listed rows: the wordline
  /// voltages of n samples (`t_in` row-major [n, rows]) on the active
  /// kernel path, written to `v_wl` as row-major [n, rows]; unlisted
  /// rows of `v_wl` keep whatever they held.  `rows` must be strictly
  /// ascending and in range, else throws.  The voltages depend only on
  /// the circuit parameters and the input, so they can feed
  /// mvm_voltages_batch of every FastMvm with the same rows and
  /// parameters — the tiles sharing a row window.
  void wordline_batch(std::span<const double> t_in, std::size_t n,
                      std::span<const std::uint32_t> rows,
                      aligned_vector& v_wl) const;

  /// The current-sum + S2 stage of mvm_times_batch over the listed rows
  /// (strictly ascending and in range, else throws), fed wordline
  /// voltages from wordline_batch over the same rows of this FastMvm or
  /// of one with the same rows and circuit parameters; `t_out` is
  /// row-major [n, cols].  When every unlisted row is silent in every
  /// sample, the output is bit-identical to mvm_times_batch on the full
  /// input: a silent row would add a signed zero to each current sum.
  /// An empty list runs S2 alone, O(cols) per sample.
  void mvm_voltages_batch(const aligned_vector& v_wl, std::size_t n,
                          std::span<const std::uint32_t> rows,
                          std::span<double> t_out) const;

  /// The ideal Eq.(6) linear-model times for the same inputs.
  void ideal_times(std::span<const double> t_in,
                   std::span<double> t_out) const;

  static constexpr double kNoSpike =
      std::numeric_limits<double>::infinity();

 private:
  void precompute();
  /// Throws unless `rows` is strictly ascending and in range.
  void check_rows(std::span<const std::uint32_t> rows) const;

  /// S1: the wordline voltages of n samples (`t_in` row-major
  /// [n, rows]) into `v_wl` [n, rows], for the listed rows only; the
  /// other rows of `v_wl` keep whatever they held.
  template <class V>
  void wordline_stage(const double* t_in, std::size_t n,
                      std::span<const std::uint32_t> rows,
                      double* v_wl) const;

  /// Current sums over the listed rows, then S2: n samples from `v_wl`
  /// [n, rows] into `t_out` row-major [n, cols].  Books the silent
  /// outputs; the caller books the MACs.
  template <class V>
  void voltage_stage(const double* v_wl, std::size_t n,
                     std::span<const std::uint32_t> rows,
                     double* t_out) const;

  /// One register block of the voltage stage: kS samples from s0 by kC
  /// column vectors from c0.
  template <class V, std::size_t kS, std::size_t kC>
  void column_block(const double* v_wl, std::size_t s0, std::size_t c0,
                    std::span<const std::uint32_t> rows, double* t_out,
                    std::size_t* silent) const;

  /// S2 for the column vector at c: current sums -> threshold ->
  /// crossing -> spike times (kNoSpike past the slice, the comparator
  /// delay for an unprogrammed or padding column).  Element-wise per
  /// lane; `silent` counts suppressed outputs.
  template <class V>
  V recover(V weighted, std::size_t c, std::size_t* silent) const;

  circuits::CircuitParams params_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t cols_pad_ = 0;  // cols rounded up to the vector width
  std::vector<std::uint32_t> all_rows_;  // 0, 1, ..., rows - 1
  aligned_vector g_;        // row-major effective conductances:
                            // g_[r * cols_pad_ + c], zero padding
                            // columns, so each row's column vectors
                            // load aligned
  aligned_vector g_total_;  // per column, padded with zeros
  aligned_vector k_;        // per-column saturation factor, padded
  aligned_vector offsets_;  // per-column comparator mismatch, padded
};

}  // namespace resipe::resipe_core
