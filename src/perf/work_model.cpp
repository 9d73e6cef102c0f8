#include "resipe/perf/work_model.hpp"

namespace resipe::perf {

// --- analytic models (constants documented in the header) --------------

WorkCost fast_mvm_cost(std::size_t rows, std::size_t cols) {
  const double r = static_cast<double>(rows);
  const double c = static_cast<double>(cols);
  return {4.0 * r + 2.0 * r * c + 10.0 * c,
          8.0 * (2.0 * r + 2.0 * r * c + 3.0 * c + c)};
}

WorkCost fast_mvm_batch_cost(std::size_t rows, std::size_t cols,
                             std::size_t n) {
  const double r = static_cast<double>(rows);
  const double c = static_cast<double>(cols);
  const double s = static_cast<double>(n);
  const WorkCost single = fast_mvm_cost(rows, cols);
  return {s * single.flops,
          8.0 * (2.0 * s * r + r * c + s * r * c + 3.0 * c + 3.0 * s * c)};
}

WorkCost fast_mvm_wordline_cost(std::size_t rows, std::size_t n) {
  const double r = static_cast<double>(rows);
  const double s = static_cast<double>(n);
  return {4.0 * s * r, 8.0 * 2.0 * s * r};
}

WorkCost fast_mvm_voltages_cost(std::size_t rows, std::size_t cols,
                                std::size_t n) {
  const double r = static_cast<double>(rows);
  const double c = static_cast<double>(cols);
  const double s = static_cast<double>(n);
  return {s * (2.0 * r * c + 10.0 * c),
          8.0 * (r * c + s * r * c + 3.0 * c + 3.0 * s * c)};
}

WorkCost fast_mvm_driven_rows_cost(std::size_t rows, std::size_t n) {
  const double r = static_cast<double>(rows);
  const double s = static_cast<double>(n);
  return {s * r, 8.0 * (s * r + r)};
}

WorkCost tile_execute_cost(std::size_t rows, std::size_t cols) {
  const double r = static_cast<double>(rows);
  const double c = static_cast<double>(cols);
  return {6.0 * r + 4.0 * r * c + 12.0 * c,
          8.0 * (2.0 * r + 2.0 * r * c + 2.0 * c)};
}

WorkCost spike_encode_cost() { return {8.0, 16.0}; }

WorkCost spike_decode_cost() { return {6.0, 16.0}; }

WorkCost event_queue_build_cost(std::size_t rows) {
  const double r = static_cast<double>(rows);
  return {3.0 * r, 8.0 * (r + 2.0 * r)};
}

WorkCost ir_drop_solve_cost(std::size_t rows, std::size_t cols) {
  const double r = static_cast<double>(rows);
  const double c = static_cast<double>(cols);
  return {9.0 * r * c + 2.0 * c, 8.0 * (r + r * c + 2.0 * c)};
}

WorkCost transient_mac_cost(std::size_t inputs, std::size_t steps) {
  const double n = static_cast<double>(inputs);
  const double s = static_cast<double>(steps);
  // COG node: RK4, 4 derivative evaluations of 3*n flops + 10 update;
  // S1 + S2 ramp integrations: ~2 passes of 18 flops per step.
  const double flops = s * (4.0 * 3.0 * n + 10.0) + 2.0 * s * 18.0;
  // Conductances + held wordline voltages stream once per derivative
  // evaluation.
  const double bytes = 8.0 * (s * 4.0 * 2.0 * n + 2.0 * n);
  return {flops, bytes};
}

}  // namespace resipe::perf
