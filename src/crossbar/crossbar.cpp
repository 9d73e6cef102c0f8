#include "resipe/crossbar/crossbar.hpp"

#include <cmath>

#include "resipe/common/error.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::crossbar {

Crossbar::Crossbar(std::size_t rows, std::size_t cols,
                   device::ReramSpec spec)
    : rows_(rows), cols_(cols), spec_(spec), cells_(rows * cols) {
  RESIPE_REQUIRE(rows > 0 && cols > 0, "crossbar dimensions must be > 0");
  spec_.validate();
}

const device::ReramCell& Crossbar::cell(std::size_t row,
                                        std::size_t col) const {
  RESIPE_REQUIRE(row < rows_ && col < cols_,
                 "cell (" << row << "," << col << ") out of bounds "
                          << rows_ << "x" << cols_);
  return cells_[row * cols_ + col];
}

device::ReramCell& Crossbar::cell(std::size_t row, std::size_t col) {
  RESIPE_REQUIRE(row < rows_ && col < cols_,
                 "cell (" << row << "," << col << ") out of bounds "
                          << rows_ << "x" << cols_);
  return cells_[row * cols_ + col];
}

void Crossbar::program(std::span<const double> g_targets, Rng& rng) {
  RESIPE_TELEM_SCOPE("crossbar.program");
  RESIPE_REQUIRE(g_targets.size() == rows_ * cols_,
                 "conductance matrix size " << g_targets.size()
                                            << " != " << rows_ * cols_);
  // One telemetry decision for the whole matrix keeps the disabled
  // per-cell cost identical to an uninstrumented build.
  if (RESIPE_TELEM_ACTIVE()) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].program(spec_, g_targets[i], rng);
    }
    RESIPE_TELEM_COUNT("crossbar.cells_programmed", cells_.size());
  } else {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].program_untracked(spec_, g_targets[i], rng);
    }
  }
}

double Crossbar::g(std::size_t row, std::size_t col) const {
  return cell(row, col).programmed_g();
}

double Crossbar::effective_g(std::size_t row, std::size_t col) const {
  return cell(row, col).effective_g(spec_);
}

double Crossbar::column_total_g(std::size_t col) const {
  double total = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) total += effective_g(r, col);
  return total;
}

circuits::ColumnDrive Crossbar::column_drive(
    std::size_t col, std::span<const double> v_wl) const {
  RESIPE_REQUIRE(v_wl.size() == rows_,
                 "wordline vector size " << v_wl.size() << " != " << rows_);
  circuits::ColumnDrive drive;
  double weighted = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double g_eff = effective_g(r, col);
    drive.g_total += g_eff;
    weighted += v_wl[r] * g_eff;
  }
  drive.v_eq = drive.g_total > 0.0 ? weighted / drive.g_total : 0.0;
  return drive;
}

std::vector<circuits::ColumnDrive> Crossbar::drives(
    std::span<const double> v_wl) const {
  RESIPE_TELEM_COUNT("crossbar.drive_solves", 1);
  std::vector<circuits::ColumnDrive> out(cols_);
  for (std::size_t c = 0; c < cols_; ++c) out[c] = column_drive(c, v_wl);
  return out;
}

std::vector<circuits::ColumnDrive> Crossbar::drives_noisy(
    std::span<const double> v_wl, Rng& rng) const {
  RESIPE_REQUIRE(v_wl.size() == rows_,
                 "wordline vector size " << v_wl.size() << " != " << rows_);
  std::vector<circuits::ColumnDrive> out(cols_);
  for (std::size_t c = 0; c < cols_; ++c) {
    double weighted = 0.0;
    double total = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) {
      double g_read = cell(r, c).read_g(spec_, rng);
      if (g_read > 0.0) {
        g_read = 1.0 / (1.0 / g_read + spec_.transistor_r_on);
      }
      total += g_read;
      weighted += v_wl[r] * g_read;
    }
    out[c].g_total = total;
    out[c].v_eq = total > 0.0 ? weighted / total : 0.0;
  }
  return out;
}

std::vector<double> Crossbar::ideal_mvm(std::span<const double> v_wl) const {
  RESIPE_REQUIRE(v_wl.size() == rows_,
                 "wordline vector size " << v_wl.size() << " != " << rows_);
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double v = v_wl[r];
    if (v == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += v * effective_g(r, c);
  }
  return y;
}

double Crossbar::area() const {
  return static_cast<double>(rows_ * cols_) * spec_.cell_area;
}

double Crossbar::compute_energy(std::span<const double> v_wl,
                                double duration) const {
  RESIPE_REQUIRE(duration >= 0.0, "negative duration");
  const auto ds = drives(v_wl);
  double power = 0.0;
  for (std::size_t c = 0; c < cols_; ++c) {
    for (std::size_t r = 0; r < rows_; ++r) {
      const double dv = v_wl[r] - ds[c].v_eq;
      power += effective_g(r, c) * dv * dv;
    }
  }
  return power * duration;
}

double Crossbar::static_read_energy(std::span<const double> v_wl,
                                    double duration) const {
  RESIPE_REQUIRE(v_wl.size() == rows_, "wordline vector size mismatch");
  RESIPE_REQUIRE(duration >= 0.0, "negative duration");
  double power = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double v2 = v_wl[r] * v_wl[r];
    if (v2 == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) power += effective_g(r, c) * v2;
  }
  return power * duration;
}

Crossbar make_representative(std::size_t rows, std::size_t cols,
                             const device::ReramSpec& spec,
                             std::uint64_t seed) {
  Crossbar xbar(rows, cols, spec);
  Rng rng(seed);
  std::vector<double> g(rows * cols);
  const double g_min = spec.g_min();
  const double g_span = spec.g_max() - spec.g_min();
  for (double& v : g) v = g_min + rng.uniform(0.2, 0.8) * g_span;
  xbar.program(g, rng);
  return xbar;
}

}  // namespace resipe::crossbar
