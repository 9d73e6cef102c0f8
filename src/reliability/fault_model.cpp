#include "resipe/reliability/fault_model.hpp"

#include <algorithm>
#include <cmath>

#include "resipe/common/error.hpp"
#include "resipe/reliability/config.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::reliability {

FaultMap::FaultMap(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), cells_(rows * cols, FaultType::kNone) {
  RESIPE_REQUIRE(rows > 0 && cols > 0, "fault map dimensions must be > 0");
}

FaultType FaultMap::at(std::size_t row, std::size_t col) const {
  RESIPE_REQUIRE(row < rows_ && col < cols_,
                 "fault map cell (" << row << "," << col
                                    << ") out of bounds " << rows_ << "x"
                                    << cols_);
  return cells_[row * cols_ + col];
}

void FaultMap::set(std::size_t row, std::size_t col, FaultType fault) {
  RESIPE_REQUIRE(row < rows_ && col < cols_,
                 "fault map cell (" << row << "," << col
                                    << ") out of bounds " << rows_ << "x"
                                    << cols_);
  cells_[row * cols_ + col] = fault;
}

std::size_t FaultMap::fault_count() const {
  return static_cast<std::size_t>(
      std::count_if(cells_.begin(), cells_.end(),
                    [](FaultType f) { return f != FaultType::kNone; }));
}

std::size_t FaultMap::column_faults(std::size_t col) const {
  RESIPE_REQUIRE(col < cols_, "fault map column out of range");
  std::size_t n = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    if (cells_[r * cols_ + col] != FaultType::kNone) ++n;
  }
  return n;
}

std::size_t FaultMap::row_faults(std::size_t row) const {
  RESIPE_REQUIRE(row < rows_, "fault map row out of range");
  std::size_t n = 0;
  for (std::size_t c = 0; c < cols_; ++c) {
    if (cells_[row * cols_ + c] != FaultType::kNone) ++n;
  }
  return n;
}

void FaultModelConfig::validate() const {
  RESIPE_REQUIRE(stuck_lrs_rate >= 0.0 && stuck_hrs_rate >= 0.0 &&
                     stuck_lrs_rate + stuck_hrs_rate <= 1.0,
                 "stuck-at rates must be non-negative and sum to at most 1, "
                 "got LRS "
                     << stuck_lrs_rate << " and HRS " << stuck_hrs_rate);
  RESIPE_REQUIRE(cluster_fraction >= 0.0 && cluster_fraction <= 1.0,
                 "cluster fraction must be in [0, 1], got "
                     << cluster_fraction);
}

namespace {

/// Marks `size` cells of `type` in a contiguous patch around a random
/// center (a square spiral walk), skipping already-faulty cells.
void mark_cluster(FaultMap& map, FaultType type, std::size_t size,
                  Rng& rng) {
  const auto rows = static_cast<std::int64_t>(map.rows());
  const auto cols = static_cast<std::int64_t>(map.cols());
  const std::int64_t r0 = rng.uniform_int(0, rows - 1);
  const std::int64_t c0 = rng.uniform_int(0, cols - 1);
  std::size_t marked = 0;
  // Grow the patch radius until enough in-bounds cells are covered.
  for (std::int64_t radius = 0; marked < size && radius <= rows + cols;
       ++radius) {
    for (std::int64_t dr = -radius; dr <= radius && marked < size; ++dr) {
      for (std::int64_t dc = -radius; dc <= radius && marked < size; ++dc) {
        if (std::max(std::abs(dr), std::abs(dc)) != radius) continue;
        const std::int64_t r = r0 + dr;
        const std::int64_t c = c0 + dc;
        if (r < 0 || r >= rows || c < 0 || c >= cols) continue;
        const auto ur = static_cast<std::size_t>(r);
        const auto uc = static_cast<std::size_t>(c);
        if (map.at(ur, uc) != FaultType::kNone) continue;
        map.set(ur, uc, type);
        ++marked;
      }
    }
  }
}

}  // namespace

FaultMap generate_fault_map(std::size_t rows, std::size_t cols,
                            const FaultModelConfig& config, Rng& rng) {
  config.validate();
  FaultMap map(rows, cols);
  const double total_rate = config.stuck_lrs_rate + config.stuck_hrs_rate;
  if (total_rate <= 0.0) return map;

  // Independent portion.
  const double scale = 1.0 - config.cluster_fraction;
  if (scale > 0.0) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const double u = rng.uniform();
        if (u < config.stuck_lrs_rate * scale) {
          map.set(r, c, FaultType::kStuckLrs);
        } else if (u < total_rate * scale) {
          map.set(r, c, FaultType::kStuckHrs);
        }
      }
    }
  }

  // Clustered portion: place round(budget / kClusterCells) patches per
  // fault type, probabilistically rounding the remainder so the
  // expected defect count matches the rate.
  if (config.cluster_fraction > 0.0) {
    const double cells = static_cast<double>(rows * cols);
    for (const auto& [type, rate] :
         {std::pair{FaultType::kStuckLrs, config.stuck_lrs_rate},
          std::pair{FaultType::kStuckHrs, config.stuck_hrs_rate}}) {
      const double budget = cells * rate * config.cluster_fraction;
      const double n_exact = budget / static_cast<double>(kClusterCells);
      auto n_clusters = static_cast<std::size_t>(n_exact);
      if (rng.uniform() < n_exact - static_cast<double>(n_clusters)) {
        ++n_clusters;
      }
      for (std::size_t i = 0; i < n_clusters; ++i) {
        mark_cluster(map, type, kClusterCells, rng);
      }
    }
  }
  RESIPE_TELEM_COUNT("reliability.cells_faulty", map.fault_count());
  return map;
}

}  // namespace resipe::reliability
