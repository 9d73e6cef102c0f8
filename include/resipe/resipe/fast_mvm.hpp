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
// Every MVM is the same two stages: S1 (the GD ramp turns each input
// spike time into a wordline voltage) and the voltage stage (the column
// current sums, then the S2 inversion to output spike times).  S1 is
// pointwise and depends only on the circuit parameters, so `wordline`
// runs it once over a layer's inputs for every tile that shares them.
// The voltage stage takes n samples and the ascending list of rows to
// visit, each row with the offset of its voltage in a sample: sample s
// reads row r at v[s * stride + offset_r].  mvm_times and
// mvm_times_batch visit every row at its own index, mvm_voltages_batch
// the rows its caller lists, which may be none.  The offsets are the
// caller's layout: a dense layer's input row, or an im2col patch read in
// place from a padded image plane, its samples `stride` apart.  A row
// left out must be at +-0 V in every sample, so it would add a signed
// zero to every sum; driven_rows lists the other rows.
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
// against the full call on voltages that are +-0 outside the list.
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
  /// cols() rounded up to the native vector width: the output row
  /// stride at which the voltage stage stores every column vector whole.
  std::size_t padded_cols() const { return cols_pad_; }

  /// One entry of a row list: a tile row and the offset of its wordline
  /// voltage within a sample's stretch of the voltage buffer.
  struct Wordline {
    std::uint32_t row = 0;
    std::uint32_t offset = 0;
    bool operator==(const Wordline&) const = default;
  };
  /// The row list of every row, 0 to rows - 1, each at its own index as
  /// offset (a [n, rows] buffer read at stride rows() or wider).
  std::span<const Wordline> all_rows() const { return all_rows_; }
  const circuits::CircuitParams& params() const { return params_; }
  double g_total(std::size_t col) const { return g_total_[col]; }

  /// Per-column saturation factor k_j = 1 - exp(-dt * g_total_j / Ccog)
  /// (or its dt/tau linearization in linear mode).  Together with
  /// g_total this is the per-column calibration trim that converts a
  /// sampled COG voltage back into the raw current-sum:
  ///   sum_i(V_i G_ij) = V_cog,j * g_total_j / k_j.
  double k(std::size_t col) const { return k_[col]; }

  /// Reads a batch of output spike times back as raw current-sums
  /// through that trim, in one call: for sample s < n and data column
  /// c < cols with k > 0,
  ///   rec[s * rec_stride + c] += V_cog(t) * g_total / k,
  /// where t = t_out[s * padded_cols() + slot] is read at the physical
  /// slot the column was placed on (slot_of_col[c], or c itself when
  /// the map is empty), V_cog is the output ramp voltage at t and a
  /// silent column (kNoSpike) books the slice boundary.  t_out is laid
  /// out as mvm_voltages_batch writes it at out_stride = padded_cols();
  /// each rec row owns simd::pad_to_lanes(cols) values (rec_stride at
  /// least that).  An identity map runs whole vectors in place, its last
  /// one included, so lanes [cols, pad_to_lanes(cols)) of a rec row
  /// receive unspecified values; a remapped one gathers through
  /// slot_of_col and writes exactly cols values per row.  Throws unless
  /// cols <= cols(), the map is empty or holds cols slots < cols(), and
  /// both spans hold the n rows.  Runs on the active kernel path; each
  /// value gets the bits of a one-sample call.
  void add_current_sums(std::span<const double> t_out, std::size_t n,
                        std::span<const std::size_t> slot_of_col,
                        std::span<double> rec, std::size_t rec_stride,
                        std::size_t cols) const;

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
  /// conductance row feeds several samples.  Exactly wordline followed
  /// by mvm_voltages_batch over every row at stride rows().
  void mvm_times_batch(std::span<const double> t_in, std::size_t n,
                       std::span<double> t_out, BatchScratch& scratch) const;

  /// S1 on the active kernel path: v[i] receives the wordline voltage of
  /// spike time t[i] (a zero for t = 0, and +0.0 for a time outside
  /// [0, slice_length], kNoSpike and NaN included).  Pointwise, so a
  /// time gives the same voltage in any span, and `v` may be `t`
  /// itself.  The voltages depend only on `params`, so they feed
  /// mvm_voltages_batch of every FastMvm built with the same parameters.
  static void wordline(const circuits::CircuitParams& params,
                       std::span<const double> t, std::span<double> v);

  /// The current-sum + S2 stage of mvm_times_batch over the listed rows
  /// (strictly ascending by row and in range, else throws), for n
  /// samples of wordline voltages: sample s's voltage of a listed row is
  /// v_wl[s * stride + offset], the offset the list gives it.  So a row
  /// window of a wider input, or an im2col patch inside an image plane,
  /// is read in place, and samples may overlap (any stride, 0 too).
  /// Throws unless v_wl reaches (n - 1) * stride + the largest listed
  /// offset (nothing is read, so nothing is required, when n or the list
  /// is empty).  Sample s's time of column c goes to
  /// t_out[s * out_stride + c]; throws unless out_stride >= cols() and
  /// t_out holds n * out_stride values.  At out_stride >= padded_cols()
  /// every column vector stores whole, and the padding lanes of a row
  /// receive the comparator delay of an unprogrammed column.  When every
  /// unlisted row is at +-0 V in every sample, the output is
  /// bit-identical to mvm_times_batch on the full input: such a row would
  /// add a signed zero to each current sum.  An empty list runs S2 alone,
  /// O(cols) per sample.
  void mvm_voltages_batch(std::span<const double> v_wl, std::size_t n,
                          std::size_t stride, std::span<const Wordline> rows,
                          std::span<double> t_out,
                          std::size_t out_stride) const;

  /// The row list of mvm_voltages_batch over the same voltages: `rows`
  /// receives, in order, the entries of `from` (a row list in the same
  /// layout, typically a row window's whole list) whose voltage is
  /// nonzero in some of the n samples.  Every other row is at +-0 V in
  /// every sample, so the call over this list gives the call over `from`
  /// bit for bit.  `rows` must not be the storage `from` views.  Throws
  /// as mvm_voltages_batch does on `from` and the layout.
  void driven_rows(std::span<const double> v_wl, std::size_t n,
                   std::size_t stride, std::span<const Wordline> from,
                   std::vector<Wordline>& rows) const;

  /// The ideal Eq.(6) linear-model times for the same inputs.
  void ideal_times(std::span<const double> t_in,
                   std::span<double> t_out) const;

  static constexpr double kNoSpike =
      std::numeric_limits<double>::infinity();

 private:
  void precompute();
  /// Throws unless `rows` is strictly ascending by row and in range, and
  /// v_wl reaches every listed offset of the n samples `stride` apart.
  void check_rows(std::span<const double> v_wl, std::size_t n,
                  std::size_t stride, std::span<const Wordline> rows) const;

  /// Current sums over the listed rows, then S2: n samples from `v_wl`,
  /// `stride` apart, into `t_out` rows of `out_stride`.  Books the silent
  /// outputs; the caller books the MACs.
  template <class V>
  void voltage_stage(const double* v_wl, std::size_t n, std::size_t stride,
                     std::span<const Wordline> rows, double* t_out,
                     std::size_t out_stride) const;

  /// One register block of the voltage stage: kS samples from s0 by kC
  /// column vectors from c0.
  template <class V, std::size_t kS, std::size_t kC>
  void column_block(const double* v_wl, std::size_t stride, std::size_t s0,
                    std::size_t c0, std::span<const Wordline> rows,
                    double* t_out, std::size_t out_stride,
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
  std::vector<Wordline> all_rows_;  // {r, r} for r = 0, 1, ..., rows - 1
  aligned_vector g_;        // row-major effective conductances:
                            // g_[r * cols_pad_ + c], zero padding
                            // columns, so each row's column vectors
                            // load aligned
  aligned_vector g_total_;  // per column, padded with zeros
  aligned_vector k_;        // per-column saturation factor, padded
  aligned_vector offsets_;  // per-column comparator mismatch, padded
};

}  // namespace resipe::resipe_core
