#include "resipe/crossbar/mapping.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "resipe/common/error.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::crossbar {

const char* to_string(SignedMapping strategy) {
  switch (strategy) {
    case SignedMapping::kDifferentialPair: return "differential pair";
    case SignedMapping::kComplementaryPair: return "complementary pair";
    case SignedMapping::kOffsetColumn: return "offset column";
  }
  return "?";
}

namespace {
bool is_pair(SignedMapping s) {
  return s == SignedMapping::kDifferentialPair ||
         s == SignedMapping::kComplementaryPair;
}
}  // namespace

std::size_t MappedWeights::plus_col(std::size_t logical_j) const {
  RESIPE_REQUIRE(logical_j < logical_cols, "logical column out of range");
  return is_pair(strategy) ? 2 * logical_j : logical_j;
}

std::size_t MappedWeights::minus_col(std::size_t logical_j) const {
  RESIPE_REQUIRE(logical_j < logical_cols, "logical column out of range");
  return is_pair(strategy) ? 2 * logical_j + 1 : reference_col;
}

MappedWeights map_weights(std::span<const double> weights, std::size_t rows,
                          std::size_t logical_cols,
                          const device::ReramSpec& spec,
                          SignedMapping strategy, double w_clip) {
  RESIPE_TELEM_SCOPE("crossbar.mapping.map_weights");
  RESIPE_REQUIRE(rows > 0 && logical_cols > 0, "empty weight matrix");
  RESIPE_REQUIRE(weights.size() == rows * logical_cols,
                 "weight matrix size mismatch");
  // std::max below would skip a NaN, and an Inf would scale every
  // finite weight to zero.
  for (std::size_t i = 0; i < weights.size(); ++i) {
    RESIPE_REQUIRE(std::isfinite(weights[i]),
                   "non-finite weight " << weights[i] << " at row "
                                        << i / logical_cols << ", column "
                                        << i % logical_cols);
  }
  spec.validate();

  double scale = w_clip;
  if (scale <= 0.0) {
    for (double w : weights) scale = std::max(scale, std::abs(w));
    if (scale <= 0.0) scale = 1.0;  // all-zero matrix
  } else if (telemetry::enabled()) {
    std::size_t clipped = 0;
    for (double w : weights) {
      if (std::abs(w) > scale) ++clipped;
    }
    RESIPE_TELEM_COUNT("crossbar.mapping.clipped_weights", clipped);
  }
  RESIPE_TELEM_COUNT("crossbar.mapping.mapped_weights", weights.size());

  const double g_min = spec.g_min();
  const double g_span = spec.g_max() - spec.g_min();

  MappedWeights out;
  out.rows = rows;
  out.strategy = strategy;
  out.logical_cols = logical_cols;

  if (strategy == SignedMapping::kDifferentialPair) {
    out.cols = 2 * logical_cols;
    out.g_targets.assign(rows * out.cols, 0.0);
    out.weight_per_siemens = scale / g_span;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < logical_cols; ++j) {
        const double w =
            std::clamp(weights[r * logical_cols + j], -scale, scale);
        const double f = std::abs(w) / scale;
        const double g_on = g_min + f * g_span;
        out.g_targets[r * out.cols + 2 * j] = w > 0.0 ? g_on : g_min;
        out.g_targets[r * out.cols + 2 * j + 1] = w < 0.0 ? g_on : g_min;
      }
    }
  } else if (strategy == SignedMapping::kComplementaryPair) {
    out.cols = 2 * logical_cols;
    out.g_targets.assign(rows * out.cols, 0.0);
    out.weight_per_siemens = scale / g_span;
    const double g_mid = g_min + 0.5 * g_span;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < logical_cols; ++j) {
        const double w =
            std::clamp(weights[r * logical_cols + j], -scale, scale);
        const double half = 0.5 * (w / scale) * g_span;
        out.g_targets[r * out.cols + 2 * j] = g_mid + half;
        out.g_targets[r * out.cols + 2 * j + 1] = g_mid - half;
      }
    }
  } else {
    out.cols = logical_cols + 1;
    out.reference_col = logical_cols;
    out.g_targets.assign(rows * out.cols, 0.0);
    out.weight_per_siemens = 2.0 * scale / g_span;
    const double g_mid = g_min + 0.5 * g_span;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < logical_cols; ++j) {
        const double w =
            std::clamp(weights[r * logical_cols + j], -scale, scale);
        const double shifted = (w + scale) / (2.0 * scale);  // [0, 1]
        out.g_targets[r * out.cols + j] = g_min + shifted * g_span;
      }
      out.g_targets[r * out.cols + out.reference_col] = g_mid;
    }
  }
  return out;
}

ColumnRemapPlan plan_column_remap(const reliability::FaultMap& detected,
                                  std::size_t data_cols, std::size_t group,
                                  std::span<const double> col_importance) {
  RESIPE_TELEM_SCOPE("crossbar.mapping.plan_column_remap");
  RESIPE_REQUIRE(group >= 1, "remap group must be >= 1");
  RESIPE_REQUIRE(data_cols >= 1 && data_cols % group == 0,
                 "data columns must be a whole number of groups");
  RESIPE_REQUIRE(detected.cols() >= data_cols,
                 "fault map narrower than the data columns");
  RESIPE_REQUIRE(col_importance.empty() ||
                     col_importance.size() == data_cols,
                 "importance vector size mismatch");

  ColumnRemapPlan plan;
  plan.group = group;
  plan.data_cols = data_cols;
  plan.total_cols = detected.cols();
  plan.slot_of_col.resize(data_cols);
  std::iota(plan.slot_of_col.begin(), plan.slot_of_col.end(), 0u);

  const std::size_t data_units = data_cols / group;
  // Partial trailing spare groups cannot host a whole unit; ignore them.
  const std::size_t total_units = detected.cols() / group;

  const auto unit_faults = [&](std::size_t unit) {
    std::size_t n = 0;
    for (std::size_t k = 0; k < group; ++k) {
      n += detected.column_faults(unit * group + k);
    }
    return n;
  };
  const auto unit_importance = [&](std::size_t unit) {
    if (col_importance.empty()) return 1.0;
    double sum = 0.0;
    for (std::size_t k = 0; k < group; ++k) {
      sum += col_importance[unit * group + k];
    }
    return sum;
  };

  // unit_slot[u] = slot unit occupied by data unit u.
  std::vector<std::size_t> unit_slot(data_units);
  std::iota(unit_slot.begin(), unit_slot.end(), 0u);

  // Faulty data units, most important (then most damaged) first.
  std::vector<std::size_t> faulty;
  for (std::size_t u = 0; u < data_units; ++u) {
    if (unit_faults(u) > 0) faulty.push_back(u);
  }
  std::sort(faulty.begin(), faulty.end(), [&](std::size_t a, std::size_t b) {
    const double ia = unit_importance(a);
    const double ib = unit_importance(b);
    if (ia != ib) return ia > ib;
    const std::size_t fa = unit_faults(a);
    const std::size_t fb = unit_faults(b);
    if (fa != fb) return fa > fb;
    return a < b;
  });

  // Stage 1: clean spare slots absorb faulty units.
  std::vector<std::size_t> clean_spares;
  for (std::size_t s = data_units; s < total_units; ++s) {
    if (unit_faults(s) == 0) clean_spares.push_back(s);
  }
  std::size_t next_spare = 0;
  std::vector<std::size_t> unrepaired_units;
  for (std::size_t u : faulty) {
    if (next_spare < clean_spares.size()) {
      unit_slot[u] = clean_spares[next_spare++];
      plan.spares_used += group;
      plan.remapped_cols += group;
    } else {
      unrepaired_units.push_back(u);
    }
  }

  // Stage 2: weight-aware swaps.  Remaining faulty units trade places
  // with the least important clean data units, but only when that
  // strictly lowers the importance parked on the faulty slot.
  if (!col_importance.empty() && !unrepaired_units.empty()) {
    std::vector<std::size_t> clean_data;
    for (std::size_t u = 0; u < data_units; ++u) {
      if (unit_faults(u) == 0) clean_data.push_back(u);
    }
    std::sort(clean_data.begin(), clean_data.end(),
              [&](std::size_t a, std::size_t b) {
                const double ia = unit_importance(a);
                const double ib = unit_importance(b);
                if (ia != ib) return ia < ib;
                return a < b;
              });
    std::size_t next_victim = 0;
    for (std::size_t& u : unrepaired_units) {
      if (next_victim >= clean_data.size()) break;
      const std::size_t v = clean_data[next_victim];
      if (unit_importance(v) >= unit_importance(u)) break;
      std::swap(unit_slot[u], unit_slot[v]);
      plan.remapped_cols += 2 * group;
      ++next_victim;
      u = v;  // the victim now sits on the faulty slot
    }
  }

  for (std::size_t u : unrepaired_units) {
    for (std::size_t k = 0; k < group; ++k) {
      // Report the *data column* left computing over faults.
      plan.unrepaired.push_back(u * group + k);
    }
  }
  std::sort(plan.unrepaired.begin(), plan.unrepaired.end());

  for (std::size_t u = 0; u < data_units; ++u) {
    for (std::size_t k = 0; k < group; ++k) {
      plan.slot_of_col[u * group + k] = unit_slot[u] * group + k;
    }
  }
  RESIPE_TELEM_COUNT("reliability.columns_remapped", plan.remapped_cols);
  RESIPE_TELEM_COUNT("reliability.columns_unrepairable",
                     plan.unrepaired.size());
  return plan;
}

std::vector<double> unmap_weights(const MappedWeights& mapping,
                                  std::span<const double> g_programmed) {
  RESIPE_REQUIRE(g_programmed.size() == mapping.rows * mapping.cols,
                 "programmed matrix size mismatch");
  std::vector<double> w(mapping.rows * mapping.logical_cols, 0.0);
  for (std::size_t r = 0; r < mapping.rows; ++r) {
    for (std::size_t j = 0; j < mapping.logical_cols; ++j) {
      const double g_plus =
          g_programmed[r * mapping.cols + mapping.plus_col(j)];
      const double g_minus =
          g_programmed[r * mapping.cols + mapping.minus_col(j)];
      w[r * mapping.logical_cols + j] =
          (g_plus - g_minus) * mapping.weight_per_siemens;
    }
  }
  return w;
}

}  // namespace resipe::crossbar
