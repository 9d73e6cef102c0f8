// ReRAM crossbar array.
//
// An M x N array of 1T1R cells.  During the computation stage every
// wordline i holds a constant voltage V_i (from the GD) and every cell
// (i, j) connects the COG capacitor of column j to V_i through its
// conductance G_ij, so the column's driving network reduces to the
// Thevenin equivalent of Eq. (2):
//
//   Veq_j = sum_i(V_i G_ij) / sum_i(G_ij),   Req_j = 1 / sum_i(G_ij)
//
// Note the physically-important detail: cells whose wordline is held at
// 0 V still contribute their conductance to the divider — a grounded
// row *pulls down* the column voltage, it does not disappear.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "resipe/circuits/column_output_generator.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/device/reram.hpp"

namespace resipe::crossbar {

/// Behavioral M x N 1T1R crossbar.
class Crossbar {
 public:
  /// Creates an unprogrammed (all cells at 0 S) array.
  Crossbar(std::size_t rows, std::size_t cols, device::ReramSpec spec);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const device::ReramSpec& spec() const { return spec_; }

  /// Programs every cell from a row-major conductance target matrix
  /// (siemens).  Applies level quantization, write-verify residue and
  /// static process variation per the spec.
  void program(std::span<const double> g_targets, Rng& rng);

  /// Programmed (static) conductance of a cell.
  double g(std::size_t row, std::size_t col) const;

  /// Conductance of a cell as seen from the bitline: programmed value
  /// through the 1T1R access transistor.
  double effective_g(std::size_t row, std::size_t col) const;

  /// Total effective conductance of a column — the quantity that must
  /// stay <= 1.6 mS for the charging of Ccog to remain quasi-linear
  /// (Sec. III-D).
  double column_total_g(std::size_t col) const;

  /// Thevenin equivalent of one column for the given wordline voltages
  /// (size == rows()).  Deterministic (no read noise).
  circuits::ColumnDrive column_drive(std::size_t col,
                                     std::span<const double> v_wl) const;

  /// All column drives at once.
  std::vector<circuits::ColumnDrive> drives(
      std::span<const double> v_wl) const;

  /// Column drives with fresh per-cell read noise drawn from `rng`
  /// (cycle-to-cycle variation).
  std::vector<circuits::ColumnDrive> drives_noisy(
      std::span<const double> v_wl, Rng& rng) const;

  /// Ideal MVM for reference: y_j = sum_i(V_i * G_ij) using effective
  /// conductances, with no RC dynamics.  Units: volts * siemens = amps.
  std::vector<double> ideal_mvm(std::span<const double> v_wl) const;

  /// Silicon area of the array (cells only).
  double area() const;

  /// Energy dissipated inside the array while the computation stage
  /// holds the wordlines at `v_wl` for `duration` seconds with each
  /// column capacitor settled near its Veq: the static current through
  /// each cell is G_ij * (V_i - Veq_j).
  double compute_energy(std::span<const double> v_wl, double duration) const;

  /// Energy dissipated when the bitlines are held at virtual ground
  /// (level-based / PWM / rate-coding readout): each cell burns
  /// G_ij * V_i^2 for `duration` seconds.
  double static_read_energy(std::span<const double> v_wl,
                            double duration) const;

 private:
  const device::ReramCell& cell(std::size_t row, std::size_t col) const;
  device::ReramCell& cell(std::size_t row, std::size_t col);

  std::size_t rows_;
  std::size_t cols_;
  device::ReramSpec spec_;
  std::vector<device::ReramCell> cells_;  // row-major
};

/// A crossbar programmed with a deterministic mid-window conductance
/// spread — the "fully utilized representative array" the Table II
/// designs share, so every baseline sees identical device loading.
Crossbar make_representative(std::size_t rows, std::size_t cols,
                             const device::ReramSpec& spec,
                             std::uint64_t seed);

}  // namespace resipe::crossbar
