// Weight-matrix -> conductance mapping strategies.
//
// Neural-network weights are signed reals; ReRAM conductances are
// positive.  Two standard mappings are provided:
//
//  * kDifferentialPair — every logical column j becomes a (G+, G-)
//    column pair; positive weight goes to G+, negative magnitude to
//    G-, and the logical output is out+ - out-.  Doubles the column
//    count.  Small weights sit at G_min on both sides, which keeps
//    the absolute process-variation noise on the weight small — the
//    most robust strategy (see bench_ablation_mapping); default.
//  * kComplementaryPair — also a (G+, G-) pair, but programmed
//    complementarily around the window midpoint: G± = mid ± w/2*span.
//    The pair's combined loading (G+ + G- per cell) is weight
//    independent, which balances the COG saturation factors of the
//    two columns; however every weight sits mid-window, so variation
//    noise is amplified for small weights.
//  * kOffsetColumn — weights are shifted to [0, 1]; one extra shared
//    reference column carries the offset (all cells at the conductance
//    encoding the shift), and the logical output is out_j - out_ref.
//    Only one extra column, slightly worse SNR.
//
// Both strategies normalize by the largest |w| in the matrix so the
// full conductance window is used; the scale factor is reported so
// downstream layers can undo it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "resipe/device/reram.hpp"
#include "resipe/reliability/fault_model.hpp"

namespace resipe::crossbar {

enum class SignedMapping {
  kDifferentialPair,
  kComplementaryPair,
  kOffsetColumn,
};

/// Human-readable strategy name.
const char* to_string(SignedMapping strategy);

/// Result of mapping a logical weight matrix onto conductance targets.
struct MappedWeights {
  std::size_t rows = 0;           ///< physical rows (== logical rows)
  std::size_t cols = 0;           ///< physical columns
  std::vector<double> g_targets;  ///< row-major physical conductances

  SignedMapping strategy = SignedMapping::kDifferentialPair;
  std::size_t logical_cols = 0;

  /// w = scale * (g - g_offset_equivalent); the factor converting one
  /// unit of (G+ - G-) difference (siemens) back into weight units.
  double weight_per_siemens = 0.0;

  /// For kOffsetColumn: index of the reference column; unused (npos)
  /// for differential pairs.
  std::size_t reference_col = static_cast<std::size_t>(-1);

  /// Physical column(s) carrying logical column j.
  std::size_t plus_col(std::size_t logical_j) const;
  std::size_t minus_col(std::size_t logical_j) const;
};

/// Maps a row-major `rows x logical_cols` signed weight matrix onto
/// conductance targets for the given device spec.  `w_clip`, when
/// positive, overrides the normalization scale (weights are clipped to
/// [-w_clip, +w_clip]); otherwise max |w| is used (or 1.0 for an
/// all-zero matrix).  Throws on a NaN or infinite weight, naming the
/// row and column of the first.
MappedWeights map_weights(std::span<const double> weights, std::size_t rows,
                          std::size_t logical_cols,
                          const device::ReramSpec& spec,
                          SignedMapping strategy, double w_clip = 0.0);

/// Reconstructs the logical weight matrix a mapped + programmed
/// crossbar actually realizes (inverse of map_weights using programmed
/// conductances).  Used in tests to bound mapping error.
std::vector<double> unmap_weights(const MappedWeights& mapping,
                                  std::span<const double> g_programmed);

/// Fault-aware column placement inside one tile.
///
/// A tile provides `detected.cols()` physical column slots; the first
/// `data_cols` are home slots of the mapped weight columns, the rest
/// are spares.  Given a detected fault map, the planner
///  1. remaps faulty data columns onto clean spare slots (most
///     important columns first) — classic spare-column redundancy;
///  2. when spares run out, swaps remaining high-importance faulty
///     columns with clean low-importance data columns so the damage
///     lands on the weights that matter least;
///  3. reports the data columns left on faulty slots as `unrepaired`
///     so the MVM path can flag their results (graceful degradation).
///
/// `group` is the remap granularity in physical columns: 2 for paired
/// mappings (a (G+, G-) pair moves together), 1 otherwise.
struct ColumnRemapPlan {
  std::size_t group = 1;
  std::size_t data_cols = 0;
  std::size_t total_cols = 0;
  /// Physical slot assigned to each data column (size data_cols);
  /// identity when nothing needed remapping.
  std::vector<std::size_t> slot_of_col;
  /// Data columns whose assigned slot still contains detected faults.
  std::vector<std::size_t> unrepaired;
  std::size_t spares_used = 0;    ///< spare columns consumed
  std::size_t remapped_cols = 0;  ///< data columns moved off their home slot

  bool identity() const { return remapped_cols == 0; }
};

/// Plans the remap.  `col_importance` (size data_cols, optional) is the
/// weight magnitude carried by each data column; when empty, columns
/// are treated as equally important and only spare replacement (no
/// swapping) happens.  `allow_swaps` disables step 2.
ColumnRemapPlan plan_column_remap(const reliability::FaultMap& detected,
                                  std::size_t data_cols, std::size_t group,
                                  std::span<const double> col_importance = {},
                                  bool allow_swaps = true);

}  // namespace resipe::crossbar
