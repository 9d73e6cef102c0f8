#include "resipe/resipe/network.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "resipe/common/error.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/common/simd.hpp"
#include "resipe/perf/work_model.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::resipe_core {

EngineConfig EngineConfig::ideal() {
  EngineConfig cfg;
  cfg.circuit.model = circuits::TransferModel::kLinear;
  cfg.quantize_spikes = false;
  cfg.device.levels = 1 << 14;  // effectively continuous
  cfg.device.write_verify_tolerance = 0.0;
  cfg.device.variation_sigma = 0.0;
  cfg.device.read_noise_sigma = 0.0;
  cfg.device.transistor_r_on = 0.0;
  return cfg;
}

void EngineConfig::validate() const {
  circuit.validate();
  device.validate();
  reliability.validate();
  RESIPE_REQUIRE(tile_rows > 0 && tile_cols > 0,
                 "tile dimensions must be positive, got "
                     << tile_rows << "x" << tile_cols);
  RESIPE_REQUIRE(mapping == crossbar::SignedMapping::kOffsetColumn ||
                     tile_cols % 2 == 0,
                 "paired mappings need an even tile width, got "
                     << tile_cols);
  RESIPE_REQUIRE(calibration_headroom > 0.0 && calibration_headroom <= 1.0,
                 "calibration headroom must be in (0, 1], got "
                     << calibration_headroom);
  RESIPE_REQUIRE(std::isfinite(input_scale_margin) && input_scale_margin > 0.0,
                 "input scale margin must be positive and finite, got "
                     << input_scale_margin);
  RESIPE_REQUIRE(std::isfinite(retention_time) && retention_time >= 0.0,
                 "retention time must be non-negative and finite, got "
                     << retention_time);
}

namespace {

/// The effective conductance of a programmed cell at tile position
/// (r, c): retention drift acts on the device filament, then the 1T1R
/// series transistor, then position-dependent wire IR drop.
double effective_conductance(const EngineConfig& config,
                             const device::ReramCell& cell, std::size_t r,
                             std::size_t c) {
  const device::ReramSpec& spec = config.device;
  double g_dev = cell.programmed_g();
  if (config.retention_time > 0.0) {
    g_dev = cell.drifted_g(spec, config.retention_time);
  }
  double g = g_dev > 0.0 ? 1.0 / (1.0 / g_dev + spec.transistor_r_on) : 0.0;
  if (config.model_wire_ir_drop) g = config.wires.effective_g(g, r, c);
  return g;
}

/// The first n values of `buf`, which only ever grows: a workspace
/// shared by steps of different shapes never re-zeroes storage that its
/// caller overwrites.
template <class Vec>
std::span<typename Vec::value_type> grow(Vec& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return {buf.data(), n};
}

}  // namespace

ProgrammedMatrix::ProgrammedMatrix(const EngineConfig& config,
                                   std::span<const double> weights,
                                   std::span<const double> bias,
                                   std::size_t in, std::size_t out,
                                   Rng& rng)
    : config_(config),
      codec_(config.circuit, config.quantize_spikes),
      in_(in),
      out_(out),
      bias_(bias.begin(), bias.end()) {
  RESIPE_TELEM_SCOPE("resipe_core.matrix.program");
  config_.validate();
  RESIPE_REQUIRE(weights.size() == in * out, "weight matrix size mismatch");
  RESIPE_REQUIRE(bias.size() == out, "bias size mismatch");

  mapping_ = crossbar::map_weights(weights, in, out, config_.device,
                                   config_.mapping);
  row_blocks_ = (in + config_.tile_rows - 1) / config_.tile_rows;
  output_ok_.assign(out_, true);
  program_blocks(rng);
  std::vector<std::size_t> identity(in_);
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  identity_ = wordline_table(identity);
}

std::vector<FastMvm::Wordline> ProgrammedMatrix::wordline_table(
    std::span<const std::size_t> offsets) const {
  RESIPE_REQUIRE(offsets.size() == in_,
                 "wordline table: " << offsets.size() << " offsets for "
                                    << in_ << " inputs");
  std::vector<FastMvm::Wordline> table(in_);
  for (std::size_t i = 0; i < in_; ++i) {
    RESIPE_REQUIRE(offsets[i] <= std::numeric_limits<std::uint32_t>::max(),
                   "wordline table: offset " << offsets[i] << " of input "
                                             << i << " exceeds 2^32 - 1");
    // Row windows are tile_rows high from input 0, as program_blocks
    // cuts them.
    table[i] = {static_cast<std::uint32_t>(i % config_.tile_rows),
                static_cast<std::uint32_t>(offsets[i])};
  }
  return table;
}

void ProgrammedMatrix::program_blocks(Rng& rng) {
  const auto& rel = config_.reliability;
  const device::ReramSpec& spec = config_.device;
  // Spare columns are physical silicon: on the fault path they exist
  // (and are defective at the same rates) whether or not the mitigation
  // policy uses them, so the OFF/ON comparison sees identical fault
  // realizations.
  const std::size_t spare = rel.enabled ? rel.mitigation.spare_cols : 0;
  // Defects come from their own stream: toggling mitigation changes how
  // many *programming* draws happen, never which cells are broken.
  Rng fault_rng(rel.fault_seed);
  const device::ProgramBudget budget{reliability::kWriteVerifyAttempts};
  std::vector<bool> col_degraded(mapping_.cols, false);

  const std::size_t col_blocks =
      (mapping_.cols + config_.tile_cols - 1) / config_.tile_cols;
  // A recovered row gives each column block a segment padded to the
  // vector width, so a block's read-back stores whole vectors; decode
  // reads each output's two columns at indices resolved here.
  const std::size_t segment = simd::pad_to_lanes(config_.tile_cols);
  rec_stride_ = (col_blocks - 1) * segment +
                simd::pad_to_lanes(mapping_.cols -
                                   (col_blocks - 1) * config_.tile_cols);
  const auto rec_index = [&](std::size_t col) {
    return col / config_.tile_cols * segment + col % config_.tile_cols;
  };
  plus_at_.resize(out_);
  minus_at_.resize(out_);
  for (std::size_t j = 0; j < out_; ++j) {
    plus_at_[j] = rec_index(mapping_.plus_col(j));
    minus_at_[j] = rec_index(mapping_.minus_col(j));
  }
  for (std::size_t rb = 0; rb < row_blocks_; ++rb) {
    const std::size_t row0 = rb * config_.tile_rows;
    const std::size_t rows = std::min(config_.tile_rows, in_ - row0);
    for (std::size_t cb = 0; cb < col_blocks; ++cb) {
      Block block;
      block.row0 = row0;
      block.rows = rows;
      block.col0 = cb * config_.tile_cols;
      block.rec0 = cb * segment;
      block.cols = std::min(config_.tile_cols, mapping_.cols - block.col0);
      block.slots = block.cols + spare;
      const std::size_t slots = block.slots;

      // Per-slot conductance targets; unused slots idle at HRS.
      std::vector<double> targets(rows * slots, spec.g_min());
      reliability::FaultMap truth;
      if (rel.enabled) {
        truth = place_block(block, targets, fault_rng, col_degraded);
      } else {
        for (std::size_t r = 0; r < rows; ++r) {
          std::copy_n(mapping_.g_targets.data() +
                          (row0 + r) * mapping_.cols + block.col0,
                      block.cols, targets.data() + r * slots);
        }
      }

      // Program every slot through the full device model.  On the fault
      // path the defects are pinned first and writes go through the
      // bounded write-verify loop, whose explicit status counts give-ups.
      std::vector<double> g_eff(rows * slots, 0.0);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t s = 0; s < slots; ++s) {
          const double target = targets[r * slots + s];
          device::ReramCell cell;
          if (!rel.enabled) {
            cell.program(spec, target, rng);
          } else {
            switch (truth.at(r, s)) {
              case reliability::FaultType::kStuckLrs:
                cell.force_stuck_lrs(spec);
                break;
              case reliability::FaultType::kStuckHrs:
                cell.force_stuck_hrs(spec);
                break;
              case reliability::FaultType::kNone:
                break;
            }
            const device::ProgramResult res =
                cell.program_verified(spec, target, rng, budget);
            if (res.status == device::ProgramStatus::kGaveUp) {
              ++rstats_.write_giveups;
            }
          }
          g_eff[r * slots + s] = effective_conductance(config_, cell, r, s);
        }
      }

      block.mvm = std::make_unique<FastMvm>(config_.circuit, rows, slots,
                                            std::move(g_eff));
      if (config_.circuit.comparator_offset_sigma > 0.0) {
        std::vector<double> offsets(slots, 0.0);
        for (double& o : offsets) {
          o = rng.normal(0.0, config_.circuit.comparator_offset_sigma);
        }
        block.mvm->set_column_offsets(std::move(offsets));
      }
      blocks_.push_back(std::move(block));
    }
  }
  if (!rel.enabled) return;

  std::size_t degraded = 0;
  for (std::size_t j = 0; j < out_; ++j) {
    if (col_degraded[mapping_.plus_col(j)] ||
        col_degraded[mapping_.minus_col(j)]) {
      output_ok_[j] = false;
      ++degraded;
    }
  }
  RESIPE_TELEM_COUNT("reliability.cells_compensated",
                     rstats_.cells_compensated);
  RESIPE_TELEM_COUNT("reliability.degraded_outputs", degraded);
}

reliability::FaultMap ProgrammedMatrix::place_block(
    Block& block, std::vector<double>& targets, Rng& fault_rng,
    std::vector<bool>& col_degraded) {
  const auto& rel = config_.reliability;
  const auto& mit = rel.mitigation;
  const double g_min = config_.device.g_min();
  const double g_max = config_.device.g_max();
  const double g_span = g_max - g_min;
  const bool paired =
      config_.mapping != crossbar::SignedMapping::kOffsetColumn;
  const std::size_t rows = block.rows;
  const std::size_t cols = block.cols;
  const std::size_t slots = block.slots;
  const auto target_of = [&](std::size_t r, std::size_t c) {
    return mapping_.g_targets[(block.row0 + r) * mapping_.cols +
                              (block.col0 + c)];
  };

  // --- Defect realization.  A mitigating chip knows its defect map; a
  // blind (mitigation-off) chip never looks at it.
  reliability::FaultMap truth =
      reliability::generate_fault_map(rows, slots, rel.faults, fault_rng);
  rstats_.cells_faulty += truth.fault_count();

  // --- Column placement.  Importance = conductance mass above G_min,
  // i.e. the weight magnitude the column carries.
  crossbar::ColumnRemapPlan plan;
  plan.group = paired ? 2 : 1;
  plan.data_cols = cols;
  plan.total_cols = slots;
  plan.slot_of_col.resize(cols);
  std::iota(plan.slot_of_col.begin(), plan.slot_of_col.end(),
            std::size_t{0});
  if (mit.enabled) {
    std::vector<double> importance(cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        importance[c] += target_of(r, c) - g_min;
      }
    }
    plan = crossbar::plan_column_remap(truth, cols, plan.group, importance);
    rstats_.columns_remapped += plan.remapped_cols;
    rstats_.spares_used += plan.spares_used;
    rstats_.columns_unrepairable += plan.unrepaired.size();
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      targets[r * slots + plan.slot_of_col[c]] = target_of(r, c);
    }
  }

  // --- Differential compensation: a single stuck cell of a (G+, G-)
  // pair is cancelled by re-targeting its healthy partner to preserve
  // the pair difference.  Residuals beyond kDegradeWindow of the
  // conductance window (and both-stuck rows) flag the pair.
  std::vector<bool> data_degraded(cols, false);
  if (mit.enabled && paired) {
    for (std::size_t c0 = 0; c0 + 1 < cols; c0 += 2) {
      const std::size_t c1 = c0 + 1;
      const std::size_t s0 = plan.slot_of_col[c0];
      const std::size_t s1 = plan.slot_of_col[c1];
      bool degraded = false;
      for (std::size_t r = 0; r < rows; ++r) {
        const reliability::FaultType f0 = truth.at(r, s0);
        const reliability::FaultType f1 = truth.at(r, s1);
        const bool b0 = f0 != reliability::FaultType::kNone;
        const bool b1 = f1 != reliability::FaultType::kNone;
        if (!b0 && !b1) continue;
        if (b0 && b1) {
          degraded = true;  // both cells pinned: nothing to re-target
          continue;
        }
        const bool plus_stuck = b0;
        const std::size_t healthy = plus_stuck ? s1 : s0;
        const reliability::FaultType fault = plus_stuck ? f0 : f1;
        const double g_stuck =
            fault == reliability::FaultType::kStuckLrs ? g_max : g_min;
        const double diff = targets[r * slots + s0] - targets[r * slots + s1];
        const double want = plus_stuck ? g_stuck - diff : g_stuck + diff;
        const double retarget = std::clamp(want, g_min, g_max);
        targets[r * slots + healthy] = retarget;
        ++rstats_.cells_compensated;
        if (std::abs(want - retarget) > reliability::kDegradeWindow * g_span) {
          degraded = true;
        }
      }
      if (degraded) {
        data_degraded[c0] = true;
        data_degraded[c1] = true;
      }
    }
  } else {
    for (std::size_t c : plan.unrepaired) data_degraded[c] = true;
  }
  for (std::size_t c = 0; c < cols; ++c) {
    if (data_degraded[c]) col_degraded[block.col0 + c] = true;
  }
  if (!plan.identity()) block.slot_of_col = std::move(plan.slot_of_col);
  return truth;
}

std::size_t ProgrammedMatrix::degraded_outputs() const {
  std::size_t n = 0;
  for (bool ok : output_ok_) {
    if (!ok) ++n;
  }
  return n;
}

void ProgrammedMatrix::set_input_scale(double scale) {
  RESIPE_REQUIRE(std::isfinite(scale) && scale > 0.0,
                 "input scale must be finite and positive, got " << scale);
  input_scale_ = scale;
}

void ProgrammedMatrix::set_time_scale(double alpha) {
  RESIPE_REQUIRE(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
  alpha_ = alpha;
}

void ProgrammedMatrix::probe_outputs(const Block& block,
                                     std::span<const double> t_out,
                                     std::size_t n, ProbeStats& probe) const {
  const auto& params = config_.circuit;
  // Fault-aware placement may have moved a data column onto a spare
  // slot; read the bitline it actually lives on.
  const bool remapped = !block.slot_of_col.empty();
  // Saturation taxonomy: a silent column (kNoSpike) means the
  // current-sum never pulled the COG across the ramp — the readout
  // books the slice boundary and the true value is censored from
  // above; a spike inside the first clock period means the column is
  // pinned at the slice start (at/over full scale, censored from
  // below); a spike in the last clock period is one LSB away from
  // falling silent.
  const std::size_t bins = probe.spike_time_hist.size();
  for (std::size_t s = 0; s < n; ++s) {
    const double* t_slots = t_out.data() + s * block.mvm->padded_cols();
    for (std::size_t c = 0; c < block.cols; ++c) {
      const double t = t_slots[remapped ? block.slot_of_col[c] : c];
      if (t == FastMvm::kNoSpike) {
        ++probe.no_spike;
        continue;
      }
      ++probe.spikes;
      if (t <= params.clock_period) ++probe.pinned_start;
      if (t >= params.slice_length - params.clock_period) {
        ++probe.pinned_end;
      }
      const double norm = t / params.slice_length;
      const auto bin = std::min(
          bins - 1, static_cast<std::size_t>(std::max(
                        0.0, norm * static_cast<double>(bins))));
      ++probe.spike_time_hist[bin];
    }
  }
}

void ProgrammedMatrix::encode(std::span<const double> x,
                              std::span<double> v) const {
  RESIPE_REQUIRE(x.size() == v.size(), "encode span size mismatch");
  // Normalize into the codec's [0, 1] domain in place, then run the
  // whole span through the codec's batch kernel and S1, also in place.
  for (std::size_t i = 0; i < x.size(); ++i) {
    v[i] = alpha_ * std::clamp(x[i] / input_scale_, 0.0, 1.0);
  }
  codec_.encode_times(v, v);
  FastMvm::wordline(config_.circuit, v, v);
}

void ProgrammedMatrix::run(std::span<const double> x, std::size_t n,
                           std::span<double> y, BatchWorkspace& ws,
                           ProbeStats* probe) const {
  RESIPE_REQUIRE(x.size() == n * in_ && y.size() == n * out_,
                 "forward size mismatch");
  if (probe != nullptr) {
    for (const double xi : x) {
      const double ratio = xi / input_scale_;
      if (ratio < 0.0 || ratio > 1.0) ++probe->inputs_clamped;
    }
  }
  const std::span<double> v = grow(ws.v_in, n * in_);
  encode(x, v);
  run_voltages(v, n, in_, identity_, y, out_, 1, ws, probe);
}

void ProgrammedMatrix::run_voltages(std::span<const double> v, std::size_t n,
                                    std::size_t v_stride,
                                    std::span<const FastMvm::Wordline> table,
                                    std::span<double> y, std::size_t y_stride,
                                    std::size_t out_stride,
                                    BatchWorkspace& ws,
                                    ProbeStats* probe) const {
  // The last output written is sample n - 1's output out - 1; its index
  // is computed without wrapping.
  std::size_t last_sample = 0, last_output = 0, last = 0;
  const bool y_fits =
      n == 0 ||
      (!__builtin_mul_overflow(n - 1, y_stride, &last_sample) &&
       !__builtin_mul_overflow(out_ - 1, out_stride, &last_output) &&
       !__builtin_add_overflow(last_sample, last_output, &last) &&
       last < y.size());
  RESIPE_REQUIRE(table.size() == in_ && y_fits,
                 "forward layout: a table of " << table.size() << " for "
                     << in_ << " inputs, " << n << " samples of " << out_
                     << " outputs " << y_stride << " apart at stride "
                     << out_stride << " into " << y.size() << " values");
  if (n == 0) return;
  RESIPE_TELEM_COUNT("resipe_core.matrix.block_mvms", n * blocks_.size());
  // With events on, each row window visits only the rows driven in some
  // sample.  Any other row is at +-0 V in every sample, so leaving it
  // out changes no current sum (see the note above FastMvm's voltage
  // stage); a window silent across the batch runs the voltage stage
  // over no rows.
  const bool events = config_.events.enabled;

  // Every block accumulates in the same order, so each sample's column
  // sums do not depend on the row lists.
  ws.recovered.assign(n * rec_stride_, 0.0);
  std::uint64_t listed = 0, woken = 0, skipped = 0, delivered = 0,
                rows_skipped = 0;
  // Row window whose row list `rows` holds; blocks are stored window by
  // window, so each window's list is built once per batch.
  std::size_t window = in_;
  std::span<const FastMvm::Wordline> rows;
  for (const Block& block : blocks_) {
    if (block.row0 != window) {
      window = block.row0;
      // The window's slice of the table: sample s's voltage of the
      // block's row r is v[s * v_stride + table[row0 + r].offset].
      rows = table.subspan(block.row0, block.rows);
      if (events) {
        block.mvm->driven_rows(v, n, v_stride, rows, ws.rows);
        rows = ws.rows;
        listed += rows.size();
      }
    }
    // Output times at the padded stride, so every column vector stores
    // and reads back whole.
    const std::size_t t_stride = block.mvm->padded_cols();
    const std::span<double> t_out = grow(ws.t_out, n * t_stride);
    block.mvm->mvm_voltages_batch(v, n, v_stride, rows, t_out, t_stride);
    if (rows.empty()) {
      ++skipped;
    } else {
      ++woken;
    }
    delivered += rows.size();
    rows_skipped += block.rows - rows.size();
    if (probe != nullptr) probe_outputs(block, t_out, n, *probe);
    block.mvm->add_current_sums(
        t_out, n, block.slot_of_col,
        std::span<double>(ws.recovered).subspan(block.rec0), rec_stride_,
        block.cols);
  }
  if (events) {
    RESIPE_TELEM_COUNT("resipe_core.events.queued", listed);
    RESIPE_TELEM_COUNT("resipe_core.events.delivered", delivered);
    RESIPE_TELEM_COUNT("resipe_core.events.groups_woken", woken);
    RESIPE_TELEM_COUNT("resipe_core.events.groups_skipped", skipped);
    RESIPE_TELEM_COUNT("resipe_core.events.rows_skipped", rows_skipped);
  }

  decode(ws.recovered, n, y, y_stride, out_stride);
  if (probe != nullptr) probe->vectors += n;
}

void ProgrammedMatrix::decode(std::span<const double> recovered,
                              std::size_t n, std::span<double> y,
                              std::size_t y_stride,
                              std::size_t out_stride) const {
  // recovered[j] = sum_i V_i G_ij with V_i = alpha * x_hat_i * v_full;
  // the pair/offset difference removes the conductance baseline and
  // weight_per_siemens converts siemens back into weight units.
  const double scale = mapping_.weight_per_siemens * input_scale_ /
                       (alpha_ * codec_.v_full());
  for (std::size_t s = 0; s < n; ++s) {
    const double* rec = recovered.data() + s * rec_stride_;
    double* y_s = y.data() + s * y_stride;
    for (std::size_t j = 0; j < out_; ++j) {
      y_s[j * out_stride] =
          (rec[plus_at_[j]] - rec[minus_at_[j]]) * scale + bias_[j];
    }
  }
}

void ProgrammedMatrix::forward(std::span<const double> x,
                               std::span<double> y) const {
  RESIPE_TELEM_SCOPE("resipe_core.matrix.forward");
  thread_local BatchWorkspace ws;
  run(x, 1, y, ws, nullptr);
}

void ProgrammedMatrix::ProbeStats::merge(const ProbeStats& other) {
  RESIPE_REQUIRE(spike_time_hist.size() == other.spike_time_hist.size(),
                 "probe-stat bin count mismatch");
  for (std::size_t i = 0; i < spike_time_hist.size(); ++i) {
    spike_time_hist[i] += other.spike_time_hist[i];
  }
  spikes += other.spikes;
  no_spike += other.no_spike;
  pinned_start += other.pinned_start;
  pinned_end += other.pinned_end;
  inputs_clamped += other.inputs_clamped;
  vectors += other.vectors;
}

void ProgrammedMatrix::forward_probed(std::span<const double> x,
                                      std::span<double> y,
                                      ProbeStats& stats) const {
  thread_local BatchWorkspace ws;
  run(x, 1, y, ws, &stats);
}

void ProgrammedMatrix::forward_batch(std::span<const double> x, std::size_t n,
                                     std::span<double> y,
                                     BatchWorkspace& ws) const {
  RESIPE_TELEM_SCOPE("resipe_core.matrix.forward_batch");
  run(x, n, y, ws, nullptr);
}

void ProgrammedMatrix::forward_voltages_batch(std::span<const double> v,
                                              std::size_t n,
                                              std::span<double> y,
                                              BatchWorkspace& ws) const {
  RESIPE_REQUIRE(v.size() == n * in_ && y.size() == n * out_,
                 "forward size mismatch");
  forward_voltages_batch(v, n, in_, identity_, y, out_, 1, ws);
}

void ProgrammedMatrix::forward_voltages_batch(
    std::span<const double> v, std::size_t n, std::size_t v_stride,
    std::span<const FastMvm::Wordline> table, std::span<double> y,
    std::size_t y_stride, std::size_t out_stride, BatchWorkspace& ws) const {
  RESIPE_TELEM_SCOPE("resipe_core.matrix.forward_batch");
  run_voltages(v, n, v_stride, table, y, y_stride, out_stride, ws, nullptr);
}

double ProgrammedMatrix::forward_analytic(std::span<const double> x,
                                          std::span<double> y) const {
  RESIPE_REQUIRE(x.size() == in_ && y.size() == out_,
                 "forward vector size mismatch");
  // Voltage-domain pass: V_i = alpha * x_hat_i * v_full, no time
  // quantization, no slice clamping.
  thread_local std::vector<double> v_in;
  thread_local std::vector<double> recovered;
  v_in.assign(in_, 0.0);
  for (std::size_t i = 0; i < in_; ++i) {
    const double xn = std::clamp(x[i] / input_scale_, 0.0, 1.0);
    v_in[i] = alpha_ * xn * codec_.v_full();
  }
  recovered.assign(rec_stride_, 0.0);
  thread_local std::vector<double> sums;
  double v_max = 0.0;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const Block& block = blocks_[b];
    if (b == 0 || block.row0 != blocks_[b - 1].row0) {
      // Every column's current-sum over this row window, from the
      // mapped layout's target conductances (pre-variation; close
      // enough for range calibration), walked row by row along
      // g_targets: each column still adds its rows in ascending order.
      // A 0 V row is skipped: no term is negative, so each sum starts at
      // +0.0, never holds -0.0, and adding a signed zero leaves it as is.
      sums.assign(mapping_.cols, 0.0);
      for (std::size_t r = block.row0; r < block.row0 + block.rows; ++r) {
        const double v = v_in[r];
        if (v == 0.0) continue;
        const double* g = mapping_.g_targets.data() + r * mapping_.cols;
        for (std::size_t c = 0; c < mapping_.cols; ++c) sums[c] += v * g[c];
      }
    }
    const bool remapped = !block.slot_of_col.empty();
    for (std::size_t c = 0; c < block.cols; ++c) {
      const std::size_t s = remapped ? block.slot_of_col[c] : c;
      const double g_total = block.mvm->g_total(s);
      if (g_total <= 0.0) continue;
      const double sum = sums[block.col0 + c];
      const double k = block.mvm->k(s);
      v_max = std::max(v_max, k * sum / g_total);
      recovered[block.rec0 + c] += sum;
    }
  }
  decode(recovered, 1, y, out_, 1);
  return v_max;
}

void ProgrammedMatrix::calibrate_alpha(std::span<const double> x_batch,
                                       std::size_t n) {
  RESIPE_TELEM_SCOPE("resipe_core.matrix.calibrate_alpha");
  RESIPE_REQUIRE(x_batch.size() == n * in_, "calibration batch size");
  set_time_scale(1.0);
  double v_max = 0.0;
  std::vector<double> y(out_, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> x(x_batch.data() + i * in_, in_);
    v_max = std::max(v_max, forward_analytic(x, y));
  }
  if (v_max <= 0.0) return;  // degenerate layer; keep alpha = 1
  // The COG voltage must cross the S2 ramp inside the headroom
  // fraction of the slice.
  const double v_limit = config_.circuit.ramp_voltage(
      config_.calibration_headroom * config_.circuit.slice_length);
  if (v_max > v_limit) {
    set_time_scale(std::clamp(v_limit / v_max, 1e-6, 1.0));
  }
}

void gather_conv_patch(const nn::Tensor& x, std::size_t img,
                       std::size_t cin, std::size_t k, std::size_t stride,
                       std::size_t pad, std::size_t r, std::size_t c,
                       std::span<double> patch) {
  const std::vector<std::size_t>& shape = x.shape();
  RESIPE_REQUIRE(shape.size() == 4 && img < shape[0] && cin <= shape[1] &&
                     patch.size() == cin * k * k,
                 "conv patch gather: need a rank-4 input, img < N, cin <= C "
                 "and a patch of cin*k*k values; got rank "
                     << shape.size() << ", img " << img << ", cin " << cin
                     << ", k " << k << ", patch " << patch.size());
  const auto h = static_cast<std::ptrdiff_t>(shape[2]);
  const auto w = static_cast<std::ptrdiff_t>(shape[3]);
  const double* plane = x.data().data() + img * shape[1] * shape[2] * shape[3];
  const std::ptrdiff_t top = static_cast<std::ptrdiff_t>(r * stride) -
                             static_cast<std::ptrdiff_t>(pad);
  const std::ptrdiff_t left = static_cast<std::ptrdiff_t>(c * stride) -
                              static_cast<std::ptrdiff_t>(pad);
  // conv_weight_matrix's (ic, kr, kc) order; positions in the padding
  // read 0.
  double* out = patch.data();
  for (std::size_t ic = 0; ic < cin; ++ic, plane += h * w) {
    for (std::size_t kr = 0; kr < k; ++kr) {
      const std::ptrdiff_t ir = top + static_cast<std::ptrdiff_t>(kr);
      if (ir < 0 || ir >= h) {
        out = std::fill_n(out, k, 0.0);
        continue;
      }
      const double* row = plane + ir * w;
      for (std::size_t kc = 0; kc < k; ++kc) {
        const std::ptrdiff_t icol = left + static_cast<std::ptrdiff_t>(kc);
        *out++ = (icol < 0 || icol >= w) ? 0.0 : row[icol];
      }
    }
  }
}

std::vector<double> conv_weight_matrix(const nn::Conv2d& conv) {
  const auto& w = conv.weights();
  const std::size_t cout = conv.out_channels();
  const std::size_t cin = conv.in_channels();
  const std::size_t k = conv.kernel();
  const std::size_t in = cin * k * k;
  std::vector<double> m(in * cout, 0.0);
  for (std::size_t oc = 0; oc < cout; ++oc) {
    std::size_t idx = 0;
    for (std::size_t ic = 0; ic < cin; ++ic) {
      for (std::size_t kr = 0; kr < k; ++kr) {
        for (std::size_t kc = 0; kc < k; ++kc, ++idx) {
          m[idx * cout + oc] = w.at(oc, ic, kr, kc);
        }
      }
    }
  }
  return m;
}

namespace {

double batch_abs_max(const nn::Tensor& t, double margin) {
  const double m = t.abs_max() * margin;
  return m > 0.0 ? m : 1.0;
}

}  // namespace

ResipeNetwork::ResipeNetwork(nn::Sequential& model,
                             const EngineConfig& config,
                             const nn::Tensor& calibration)
    : model_(model), config_(config) {
  config_.validate();
  // A non-finite calibration value would give some layer an infinite
  // input scale (+-Inf) or vanish from abs_max (NaN).
  const std::span<const double> cd = calibration.data();
  const auto at = static_cast<std::size_t>(
      std::find_if(cd.begin(), cd.end(),
                   [](double v) { return !std::isfinite(v); }) -
      cd.begin());
  RESIPE_REQUIRE(at == cd.size(),
                 "calibration batch holds " << cd[at] << " at flat index "
                     << at << " (image "
                     << at / (cd.size() / calibration.dim(0)) << ")");
  Rng rng(config_.program_seed);
  constexpr std::size_t kMaxCalibVectors = 512;

  // Each layer gets its own defect realization: hash the fault seed
  // with the matrix index so two same-shaped layers never share a
  // fault map.  With reliability disabled `layer_cfg` is an exact copy
  // and the legacy path stays bit-identical.
  EngineConfig layer_cfg = config_;
  const auto next_layer_cfg = [&]() -> const EngineConfig& {
    if (config_.reliability.enabled) {
      layer_cfg.reliability.fault_seed = hash_seed(
          config_.reliability.fault_seed, matrices_.size());
    }
    return layer_cfg;
  };

  // One eval walk over the calibration batch: each matrix layer is
  // lowered and calibrated on its input activations `h`.
  const auto lower = [&](std::size_t li, const nn::Tensor& h,
                         nn::Tensor& out) {
    nn::Layer& layer = model_.layer(li);
    Step step;
    // Matrix steps keep their software layer too: walk() dispatches on
    // `matrix` first, and the layer pointer is what forward_hybrid and
    // the introspection observer use as the digital reference.
    step.layer = &layer;
    if (auto* dense = dynamic_cast<nn::Dense*>(&layer)) {
      auto pm = std::make_unique<ProgrammedMatrix>(
          next_layer_cfg(), dense->weights().data(), dense->bias().data(),
          dense->in_features(), dense->out_features(), rng);
      pm->set_input_scale(batch_abs_max(h, config_.input_scale_margin));
      const std::size_t n =
          std::min<std::size_t>(h.dim(0), kMaxCalibVectors);
      pm->calibrate_alpha(
          std::span<const double>(h.data().data(),
                                  n * dense->in_features()),
          n);
      step.matrix = pm.get();
      matrices_.push_back(std::move(pm));
    } else if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      const std::vector<double> wm = conv_weight_matrix(*conv);
      const std::size_t in = conv->in_channels() * conv->kernel() *
                             conv->kernel();
      auto pm = std::make_unique<ProgrammedMatrix>(
          next_layer_cfg(), wm, conv->bias().data(), in,
          conv->out_channels(), rng);
      pm->set_input_scale(batch_abs_max(h, config_.input_scale_margin));
      // Calibrate on a subsample of im2col patches.
      const std::size_t oh = conv->out_size(h.dim(2));
      const std::size_t ow = conv->out_size(h.dim(3));
      const std::size_t total = h.dim(0) * oh * ow;
      const std::size_t take = std::min<std::size_t>(total,
                                                     kMaxCalibVectors);
      std::vector<double> patches(take * in, 0.0);
      std::vector<double> patch(in, 0.0);
      const std::size_t step_stride = std::max<std::size_t>(1, total / take);
      std::size_t written = 0;
      for (std::size_t pos = 0; pos < total && written < take;
           pos += step_stride, ++written) {
        const std::size_t img = pos / (oh * ow);
        const std::size_t rc = pos % (oh * ow);
        gather_conv_patch(h, img, conv->in_channels(), conv->kernel(),
                          conv->stride(), conv->pad(), rc / ow, rc % ow,
                          patch);
        std::copy(patch.begin(), patch.end(),
                  patches.begin() + static_cast<std::ptrdiff_t>(written * in));
      }
      pm->calibrate_alpha(
          std::span<const double>(patches.data(), written * in), written);
      step.matrix = pm.get();
      step.is_conv = true;
      step.cin = conv->in_channels();
      step.cout = conv->out_channels();
      step.k = conv->kernel();
      step.stride = conv->stride();
      step.pad = conv->pad();
      step.h = h.dim(2);
      step.w = h.dim(3);
      // Patch element (ic, kr, kc) in conv_weight_matrix's order, read
      // in place in the padded voltage plane.
      const std::size_t hp = step.h + 2 * step.pad;
      const std::size_t wp = step.w + 2 * step.pad;
      std::vector<std::size_t> offsets;
      offsets.reserve(in);
      for (std::size_t ic = 0; ic < step.cin; ++ic) {
        for (std::size_t kr = 0; kr < step.k; ++kr) {
          for (std::size_t kc = 0; kc < step.k; ++kc) {
            offsets.push_back((ic * hp + kr) * wp + kc);
          }
        }
      }
      step.plane_table = pm->wordline_table(offsets);
      matrices_.push_back(std::move(pm));
    }
    steps_.push_back(std::move(step));
    layer.forward_into(h, out);
  };
  nn::walk_steps(calibration, model_.layer_count(), lower);
}

void ResipeNetwork::run_dense(const Step& step, const nn::Tensor& x,
                              nn::Tensor& y) const {
  RESIPE_REQUIRE(x.rank() == 2, "dense step expects rank-2 input");
  const std::size_t n = x.dim(0);
  const std::size_t in = step.matrix->in_features();
  const std::size_t out = step.matrix->out_features();
  RESIPE_REQUIRE(x.dim(1) == in, "dense step input width mismatch");
  y.resize_for_overwrite({n, out});
  const double* x_data = x.data().data();
  double* y_data = y.data().data();
  // One contiguous chunk per thread, so each matrix runs batched.
  // Images are independent and write disjoint output slices, so the
  // decomposition (and thread count) cannot change the results.
  const std::size_t grain = (n + default_threads() - 1) / default_threads();
  parallel_for_chunked(n, grain, [&](std::size_t b, std::size_t e) {
    thread_local ProgrammedMatrix::BatchWorkspace ws;
    step.matrix->forward_batch(
        std::span<const double>(x_data + b * in, (e - b) * in), e - b,
        std::span<double>(y_data + b * out, (e - b) * out), ws);
  });
}

namespace {

/// A thread's padded voltage plane for conv steps: an image's
/// [cin, h, w] wordline voltages inside a zero border of `pad`, laid out
/// [cin, h + 2 pad, w + 2 pad], so every im2col patch, its padding
/// included, reads in place.  Each image writes only the interior; the
/// border is zeroed when the plane takes a new geometry and stays zero
/// across the images of that geometry.  Storage only grows.
class VoltagePlane {
 public:
  std::span<const double> place(std::span<const double> image,
                                std::size_t cin, std::size_t h,
                                std::size_t w, std::size_t pad) {
    const std::size_t hp = h + 2 * pad;
    const std::size_t wp = w + 2 * pad;
    const std::array<std::size_t, 4> geometry = {cin, h, w, pad};
    if (geometry != geometry_) {
      v_.assign(cin * hp * wp, 0.0);
      geometry_ = geometry;
    }
    for (std::size_t ic = 0; ic < cin; ++ic) {
      for (std::size_t r = 0; r < h; ++r) {
        std::copy_n(image.data() + (ic * h + r) * w, w,
                    v_.data() + (ic * hp + r + pad) * wp + pad);
      }
    }
    return v_;
  }

 private:
  std::vector<double> v_;
  std::array<std::size_t, 4> geometry_{};
};

}  // namespace

void ResipeNetwork::run_conv(const Step& step, const nn::Tensor& x,
                             nn::Tensor& y) const {
  RESIPE_REQUIRE(x.rank() == 4, "conv step expects rank-4 input");
  RESIPE_REQUIRE(x.dim(1) == step.cin && x.dim(2) == step.h &&
                     x.dim(3) == step.w,
                 "conv step lowered for [" << step.cin << ", " << step.h
                     << ", " << step.w << "] images, got [" << x.dim(1)
                     << ", " << x.dim(2) << ", " << x.dim(3) << "]");
  const std::size_t n = x.dim(0);
  const std::size_t wp = step.w + 2 * step.pad;
  const std::size_t oh = (step.h + 2 * step.pad - step.k) / step.stride + 1;
  const std::size_t ow = (wp - step.k) / step.stride + 1;
  y.resize_for_overwrite({n, step.cout, oh, ow});
  const std::size_t image = step.cin * step.h * step.w;
  const std::size_t out_plane = oh * ow;
  const double* x_data = x.data().data();
  double* y_data = y.data().data();
  // Encoding is pointwise, so encoding each activation once and reading
  // its voltage in every patch that holds it gives the bits of encoding
  // every patch element.  Padding holds the value 0, which the codec
  // encodes to t = +0.0 and S1 to +0.0 V, the plane's border.
  // One image per work item; each output row of ow patches, `stride`
  // apart in the plane, runs as one batched MVM whose outputs land in
  // place: sample c's output oc at y_img[(oc * oh + r) * ow + c].
  // Images write disjoint y slices.
  parallel_for(n, [&](std::size_t img) {
    thread_local ProgrammedMatrix::BatchWorkspace ws;
    thread_local std::vector<double> v_img_buf;
    thread_local VoltagePlane plane_buf;
    const std::span<double> v_img = grow(v_img_buf, image);
    step.matrix->encode(std::span<const double>(x_data + img * image, image),
                        v_img);
    const std::span<const double> plane =
        plane_buf.place(v_img, step.cin, step.h, step.w, step.pad);
    const std::span<double> y_img(y_data + img * step.cout * out_plane,
                                  step.cout * out_plane);
    for (std::size_t r = 0; r < oh; ++r) {
      step.matrix->forward_voltages_batch(
          plane.subspan(r * step.stride * wp), ow, step.stride,
          step.plane_table, y_img.subspan(r * ow), 1, out_plane, ws);
    }
  });
}

nn::Tensor ResipeNetwork::walk(const nn::Tensor& batch, LayerObserver* obs,
                               const std::vector<bool>& digital) const {
  return nn::walk_steps(
      batch, steps_.size(),
      [&](std::size_t i, const nn::Tensor& in, nn::Tensor& out) {
        const Step& step = steps_[i];
        const bool analog =
            step.matrix != nullptr && !(i < digital.size() && digital[i]);
        if (!analog) {
          step.layer->forward_into(in, out);
        } else if (step.is_conv) {
          run_conv(step, in, out);
        } else {
          run_dense(step, in, out);
        }
        if (obs != nullptr) {
          obs->on_step(i, *step.layer, step.matrix, step.is_conv, in, out);
        }
      });
}

nn::Tensor ResipeNetwork::forward(const nn::Tensor& batch) const {
  return walk(batch, nullptr, {});
}

nn::Tensor ResipeNetwork::forward_observed(const nn::Tensor& batch,
                                           LayerObserver& obs) const {
  return walk(batch, &obs, {});
}

nn::Tensor ResipeNetwork::forward_hybrid(
    const nn::Tensor& batch, const std::vector<bool>& digital_steps) const {
  return walk(batch, nullptr, digital_steps);
}

ProgrammedMatrix::ReliabilityStats ResipeNetwork::reliability_stats() const {
  ProgrammedMatrix::ReliabilityStats total;
  for (const auto& m : matrices_) {
    const auto& s = m->reliability_stats();
    total.cells_faulty += s.cells_faulty;
    total.columns_remapped += s.columns_remapped;
    total.spares_used += s.spares_used;
    total.columns_unrepairable += s.columns_unrepairable;
    total.cells_compensated += s.cells_compensated;
    total.write_giveups += s.write_giveups;
  }
  return total;
}

std::size_t ResipeNetwork::degraded_outputs() const {
  std::size_t n = 0;
  for (const auto& m : matrices_) n += m->degraded_outputs();
  return n;
}

std::size_t ResipeNetwork::tile_count() const {
  std::size_t n = 0;
  for (const auto& m : matrices_) n += m->tile_count();
  return n;
}

}  // namespace resipe::resipe_core
