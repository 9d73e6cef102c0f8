#include "resipe/crossbar/ir_drop.hpp"

#include "resipe/common/error.hpp"
#include "resipe/perf/work_model.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::crossbar {

double WireModel::effective_g(double g_cell, std::size_t row,
                              std::size_t col) const {
  RESIPE_REQUIRE(r_wordline_segment >= 0.0 && r_bitline_segment >= 0.0,
                 "negative wire resistance");
  if (g_cell <= 0.0) return 0.0;
  const double r_wire = static_cast<double>(row) * r_wordline_segment +
                        static_cast<double>(col) * r_bitline_segment;
  return 1.0 / (1.0 / g_cell + r_wire);
}

std::vector<circuits::ColumnDrive> drives_with_ir_drop(
    const Crossbar& xbar, std::span<const double> v_wl,
    const WireModel& wires) {
  RESIPE_TELEM_SCOPE("crossbar.ir_drop.solve",
                     perf::ir_drop_solve_cost(xbar.rows(), xbar.cols()));
  RESIPE_REQUIRE(v_wl.size() == xbar.rows(), "wordline vector size mismatch");
  std::vector<circuits::ColumnDrive> out(xbar.cols());
  for (std::size_t c = 0; c < xbar.cols(); ++c) {
    double total = 0.0;
    double weighted = 0.0;
    for (std::size_t r = 0; r < xbar.rows(); ++r) {
      const double g = wires.effective_g(xbar.effective_g(r, c), r, c);
      total += g;
      weighted += v_wl[r] * g;
    }
    out[c].g_total = total;
    out[c].v_eq = total > 0.0 ? weighted / total : 0.0;
  }
  return out;
}

double worst_case_attenuation(const Crossbar& xbar, const WireModel& wires) {
  const std::size_t r = xbar.rows() - 1;
  const std::size_t c = xbar.cols() - 1;
  const double g_nominal = xbar.spec().g_max();
  const double g_eff = wires.effective_g(g_nominal, r, c);
  return 1.0 - g_eff / g_nominal;
}

}  // namespace resipe::crossbar
