// Indexed spike-event queue for a batch of input vectors.
//
// The codec's spike-time semantics decide what counts as an event: a
// row carries a spike exactly when its arrival time is finite,
// strictly positive and inside the slice.  Everything else — t = 0
// (the encoding of value 0, a wordline that never leaves 0 V),
// kNoSpike (= +infinity, a silent line), NaN/negative garbage, or a
// spike past the slice — is silent under the dense reference's own
// validity predicate and contributes a signed zero to every current
// sum, which is what makes skipping it bit-exact.
//
// The queue keeps the rows that spike in at least one sample as one
// row-ascending index, the row list FastMvm's batch stages take.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace resipe::resipe_core::events {

class EventQueue {
 public:
  /// The activity predicate shared with the dense reference: rows
  /// failing it hold their wordline at exactly 0 V for the whole
  /// slice (FastMvm's S1 stage maps them to +0.0).
  static bool carries_spike(double t, double slice_length) {
    return t > 0.0 && t <= slice_length;
  }

  /// Rebuilds the queue from the spike times of n input vectors,
  /// `t_in` row-major [n, rows]: a row is active when it carries a
  /// spike in any of them.  Throws unless n > 0 divides t_in.size().
  /// Deterministic: same input, same queue, regardless of thread
  /// count or build flags.
  void build(std::span<const double> t_in, double slice_length,
             std::size_t n = 1);

  /// Rows that carry a spike in some sample, ascending by row index.
  std::span<const std::uint32_t> active_rows() const { return active_rows_; }

  /// Active rows with global index in [row0, row0 + rows) — the wake
  /// set of a column group owning that row window.  The returned span
  /// aliases active_rows() (row-ascending); O(log n) binary search.
  std::span<const std::uint32_t> rows_in_range(std::size_t row0,
                                               std::size_t rows) const;

  /// True when any event falls inside the row window.
  bool any_in_range(std::size_t row0, std::size_t rows) const {
    return !rows_in_range(row0, rows).empty();
  }

  /// Number of active rows.  Single-spike coding carries at most one
  /// event per row per slice, so at n = 1 this is the event count.
  std::size_t size() const { return active_rows_.size(); }
  bool empty() const { return active_rows_.empty(); }

  /// Rows per input vector the queue was built over.
  std::size_t total_rows() const { return total_rows_; }

  /// Fraction of rows that are active, in [0, 1] (0 for empty input).
  double activity() const {
    return total_rows_ == 0
               ? 0.0
               : static_cast<double>(active_rows_.size()) /
                     static_cast<double>(total_rows_);
  }

 private:
  std::vector<std::uint32_t> active_rows_;  // sorted by row
  std::size_t total_rows_ = 0;
};

}  // namespace resipe::resipe_core::events
