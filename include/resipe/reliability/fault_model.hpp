// Hard-fault models for ReRAM crossbars.
//
// The paper evaluates accuracy only under Gaussian conductance
// variation; fabricated arrays fail primarily through *hard* defects:
// stuck-at-LRS / stuck-at-HRS cells — forming/endurance defects pin a
// cell at a conductance rail regardless of what is programmed.  Defects
// cluster spatially (line defects, forming hot spots), so the generator
// supports a clustered fraction on top of the independent per-cell
// rate.  (Retention drift is the device layer's power-law closed form,
// device::drift_conductance.)
//
// The generator draws from an explicit Rng so fault realizations are
// reproducible and independent of the programming noise stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "resipe/common/rng.hpp"

namespace resipe::reliability {

/// Hard-fault state of one cell.
enum class FaultType : std::uint8_t {
  kNone = 0,
  kStuckLrs,  ///< pinned at G_max
  kStuckHrs,  ///< pinned at G_min
};

/// Per-cell hard-fault map of one rows x cols array.
class FaultMap {
 public:
  FaultMap() = default;
  FaultMap(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  FaultType at(std::size_t row, std::size_t col) const;
  void set(std::size_t row, std::size_t col, FaultType fault);

  /// Total faulty cells.
  std::size_t fault_count() const;
  /// Faulty cells in one column / row.
  std::size_t column_faults(std::size_t col) const;
  std::size_t row_faults(std::size_t row) const;
  /// True when the column has no faulty cell.
  bool column_clean(std::size_t col) const { return column_faults(col) == 0; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<FaultType> cells_;  // row-major
};

/// Knobs of the stuck-at-fault generator.
struct FaultModelConfig {
  double stuck_lrs_rate = 0.0;  ///< per-cell probability of stuck-at-LRS
  double stuck_hrs_rate = 0.0;  ///< per-cell probability of stuck-at-HRS
  /// Fraction of the defect budget placed as spatial clusters of
  /// kClusterCells cells (a contiguous patch around a random center)
  /// instead of independent cells (0 = fully independent).
  double cluster_fraction = 0.0;

  void validate() const;
};

/// Draws a hard-fault map: independent per-cell faults at
/// rate * (1 - cluster_fraction), plus clusters covering the remaining
/// defect budget.  Expected fault count ~= cells * (lrs + hrs rates).
FaultMap generate_fault_map(std::size_t rows, std::size_t cols,
                            const FaultModelConfig& config, Rng& rng);

}  // namespace resipe::reliability
