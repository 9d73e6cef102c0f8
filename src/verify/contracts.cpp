#include "resipe/verify/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "resipe/circuits/transient.hpp"
#include "resipe/common/error.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/common/simd.hpp"
#include "resipe/crossbar/mapping.hpp"
#include "resipe/nn/model.hpp"
#include "resipe/resipe/fast_mvm.hpp"
#include "resipe/resipe/spike_code.hpp"
#include "resipe/resipe/tile.hpp"
#include "resipe/serve/pool.hpp"
#include "resipe/serve/scheduler.hpp"
#include "resipe/serve/trace.hpp"
#include "resipe/telemetry/telemetry.hpp"
#include "resipe/verify/approx.hpp"
#include "resipe/verify/ode_oracle.hpp"

namespace resipe::verify {
namespace {

using circuits::Spike;
using resipe_core::EngineConfig;
using resipe_core::FastMvm;
using resipe_core::ProgrammedMatrix;
using resipe_core::ResipeNetwork;
using resipe_core::ResipeTile;
using resipe_core::SpikeCodec;

// Fixed per-contract RNG stream ids: every contract derives its draws
// from hash_seed(spec seed, stream), so adding a contract never shifts
// another one's stream.
enum Stream : std::uint64_t {
  kStreamCodec = 0xC001,
  kStreamOdeRamp = 0xC002,
  kStreamOdeCog = 0xC003,
  kStreamFastTile = 0xC004,
  kStreamFastBatch = 0xC005,
  kStreamPerm = 0xC006,
  kStreamMonotone = 0xC007,
  kStreamZeroInput = 0xC008,
  kStreamAnalogDigital = 0xC009,
  kStreamMatrixBatch = 0xC00A,
  kStreamThreads = 0xC00B,
  kStreamOffFlags = 0xC00C,
  kStreamPerfAccounting = 0xC00D,
  kStreamServing = 0xC00E,
  kStreamSimdEquiv = 0xC00F,
  kStreamServingTrace = 0xC010,
  kStreamSparseDense = 0xC011,
  kStreamSimdEquivMatrix = 0xC012,
  kStreamConvLowering = 0xC013,
};

InjectedBug g_injected_bug = InjectedBug::kNone;

std::string fail_at(const char* what, std::size_t index, double a, double b) {
  std::ostringstream os;
  os << what << " [" << index << "]: " << describe_mismatch(a, b);
  return os.str();
}

// Restores the process-wide default thread count on scope exit (back to
// auto; the verify harness never runs inside a caller that pinned it).
struct ThreadGuard {
  ~ThreadGuard() { set_default_threads(0); }
};

// --- shared model/tile builders ----------------------------------------

std::vector<double> random_conductances(const CaseSpec& spec, Rng& rng) {
  const auto& dev = spec.config.device;
  std::vector<double> g(spec.rows * spec.cols);
  for (double& v : g) v = rng.uniform(dev.g_min(), dev.g_max());
  return g;
}

/// Programs a faithful tile and snapshots it into a FastMvm.  When the
/// row-drop bug is armed, the FastMvm is built from the same effective
/// conductances with the last row zeroed — the off-by-one a `< rows-1`
/// loop bound would produce in the current sum.
struct TileAndFast {
  std::unique_ptr<ResipeTile> tile;
  std::unique_ptr<FastMvm> fast;
};

TileAndFast build_tile_and_fast(const CaseSpec& spec, Rng& rng) {
  TileAndFast out;
  out.tile = std::make_unique<ResipeTile>(spec.config.circuit, spec.rows,
                                          spec.cols, spec.config.device);
  const std::vector<double> g = random_conductances(spec, rng);
  out.tile->program(g, rng);
  if (g_injected_bug == InjectedBug::kFastMvmRowDrop) {
    std::vector<double> g_eff(spec.rows * spec.cols, 0.0);
    for (std::size_t r = 0; r + 1 < spec.rows; ++r) {
      for (std::size_t c = 0; c < spec.cols; ++c) {
        g_eff[r * spec.cols + c] = out.tile->crossbar().effective_g(r, c);
      }
    }
    out.fast = std::make_unique<FastMvm>(spec.config.circuit, spec.rows,
                                         spec.cols, std::move(g_eff));
  } else {
    out.fast =
        std::make_unique<FastMvm>(spec.config.circuit, out.tile->crossbar());
  }
  return out;
}

/// Random signed weight matrix + bias for a spec.inputs x spec.classes
/// ProgrammedMatrix.
struct MatrixFixture {
  std::vector<double> weights;  // [in, out] row-major
  std::vector<double> bias;
  std::unique_ptr<ProgrammedMatrix> matrix;
};

MatrixFixture build_matrix(const CaseSpec& spec, Rng& rng) {
  MatrixFixture fx;
  fx.weights.resize(spec.inputs * spec.classes);
  for (double& w : fx.weights) w = rng.normal(0.0, 1.0);
  fx.bias.resize(spec.classes);
  for (double& b : fx.bias) b = rng.normal(0.0, 0.1);
  fx.matrix = std::make_unique<ProgrammedMatrix>(
      spec.config, fx.weights, fx.bias, spec.inputs, spec.classes, rng);
  return fx;
}

/// Small MLP matching the spec's network shape, with a calibration
/// batch; the weight draws come from `rng`.
struct NetworkFixture {
  std::unique_ptr<nn::Sequential> model;
  nn::Tensor calibration;
  nn::Tensor batch;
};

NetworkFixture build_network_inputs(const CaseSpec& spec, Rng& rng) {
  NetworkFixture fx;
  fx.model = std::make_unique<nn::Sequential>("verify_mlp");
  std::size_t width = spec.inputs;
  for (const std::size_t hidden : spec.layers) {
    fx.model->emplace<nn::Dense>(width, hidden, rng);
    fx.model->emplace<nn::ReLU>();
    width = hidden;
  }
  fx.model->emplace<nn::Dense>(width, spec.classes, rng);

  fx.calibration = nn::Tensor({8, spec.inputs});
  for (double& v : fx.calibration.data()) v = rng.uniform(0.0, 1.0);
  fx.batch = nn::Tensor({spec.batch, spec.inputs});
  for (double& v : fx.batch.data()) v = rng.uniform(0.0, 1.0);
  return fx;
}

bool bit_identical(std::span<const double> a, std::span<const double> b) {
  // Empty spans may carry a null data(), which memcmp must not see.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// --- contract bodies ---------------------------------------------------

ContractResult check_config_valid(const CaseSpec& spec) {
  try {
    spec.config.validate();
  } catch (const std::exception& e) {
    return ContractResult::fail(std::string("generated config rejected: ") +
                                e.what());
  }
  return ContractResult::ok();
}

ContractResult check_codec_roundtrip(const CaseSpec& spec) {
  Rng rng(hash_seed(spec.descriptor.seed, kStreamCodec));
  const auto& params = spec.config.circuit;
  const SpikeCodec codec(params, spec.config.quantize_spikes);
  // Worst value error of one clock slot: the ramp's max slope is at
  // t = 0 (exact model) or constant (linear model) — v_s / tau either
  // way — so one slot spans at most slope * clock in volts.
  const double slot_value =
      spec.config.quantize_spikes
          ? (params.v_s / params.tau_gd()) * params.clock_period /
                codec.v_full()
          : 0.0;
  const double tol = slot_value + 1e-9;
  double prev = -1.0;
  for (int i = 0; i <= 64; ++i) {
    const double x =
        i < 49 ? static_cast<double>(i) / 48.0 : rng.uniform(0.0, 1.0);
    const double back = codec.decode(codec.encode(x));
    if (!(std::fabs(back - x) <= tol)) {
      return ContractResult::fail(fail_at("codec round-trip", i, back, x));
    }
    if (i < 49) {  // the grid sweep is ascending: decode must follow
      if (back < prev) {
        return ContractResult::fail(
            fail_at("codec monotonicity", i, back, prev));
      }
      prev = back;
    }
  }
  return ContractResult::ok();
}

ContractResult check_ode_ramp(const CaseSpec& spec) {
  const auto& params = spec.config.circuit;
  if (params.model != circuits::TransferModel::kExact) {
    return ContractResult::skip("linear transfer model (closed form is "
                                "itself the approximation)");
  }
  Rng rng(hash_seed(spec.descriptor.seed, kStreamOdeRamp));
  const double tau = params.tau_gd();
  for (int trial = 0; trial < 4; ++trial) {
    const double t_end = rng.uniform(0.0, params.slice_length);
    const auto rk = integrate_adaptive(
        [&](double, double v) {
          return circuits::rc_node_derivative(v, params.v_s, tau);
        },
        0.0, 0.0, t_end);
    const double closed = params.ramp_voltage(t_end);
    if (!approx_rel(rk.value, closed, 1e-8, 1e-12 * params.v_s)) {
      return ContractResult::fail(
          fail_at("GD ramp vs adaptive RK", trial, closed, rk.value));
    }
  }
  return ContractResult::ok();
}

ContractResult check_ode_cog(const CaseSpec& spec) {
  const auto& params = spec.config.circuit;
  Rng rng(hash_seed(spec.descriptor.seed, kStreamOdeCog));
  const auto& dev = spec.config.device;
  std::vector<double> g(spec.rows), v_wl(spec.rows);
  for (double& v : g) v = rng.uniform(dev.g_min(), dev.g_max());
  for (double& v : v_wl) v = rng.uniform(0.0, params.v_s);

  const auto rk = integrate_adaptive(
      [&](double, double vc) {
        return circuits::cog_comp_derivative(params, g, v_wl, vc);
      },
      0.0, 0.0, params.comp_stage);

  double g_tot = 0.0, weighted = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    g_tot += g[i];
    weighted += g[i] * v_wl[i];
  }
  const double v_eq = weighted / g_tot;
  const double closed =
      v_eq * (1.0 - std::exp(-params.comp_stage * g_tot / params.c_cog));
  if (!approx_rel(rk.value, closed, 1e-8, 1e-12 * params.v_s)) {
    return ContractResult::fail(
        fail_at("COG charge vs adaptive RK", 0, closed, rk.value));
  }
  return ContractResult::ok();
}

ContractResult check_fast_vs_tile(const CaseSpec& spec) {
  const auto& params = spec.config.circuit;
  if (params.comparator_offset_sigma > 0.0) {
    return ContractResult::skip(
        "per-column offset mismatch is drawn independently by the two "
        "implementations");
  }
  Rng rng(hash_seed(spec.descriptor.seed, kStreamFastTile));
  TileAndFast tf = build_tile_and_fast(spec, rng);
  const SpikeCodec codec(params, spec.config.quantize_spikes);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Spike> spikes(spec.rows);
    std::vector<double> t_in(spec.rows);
    for (std::size_t i = 0; i < spec.rows; ++i) {
      spikes[i] = codec.encode(rng.uniform(0.2, 1.0));
      t_in[i] = spikes[i].arrival_time;
    }
    const auto tile_out = tf.tile->execute(spikes);
    std::vector<double> fast_out(spec.cols, 0.0);
    tf.fast->mvm_times(t_in, fast_out);
    for (std::size_t c = 0; c < spec.cols; ++c) {
      if (tile_out[c].valid()) {
        // Algebraically identical, differently factored expressions:
        // 1e-12 relative is the float-exactness bound (same bound the
        // property suite uses).
        if (!approx_rel(fast_out[c], tile_out[c].arrival_time, 1e-12,
                        1e-21)) {
          return ContractResult::fail(fail_at("fast vs tile spike time", c,
                                              fast_out[c],
                                              tile_out[c].arrival_time));
        }
      } else if (fast_out[c] != FastMvm::kNoSpike) {
        return ContractResult::fail(
            fail_at("fast spiked where tile was silent", c, fast_out[c],
                    FastMvm::kNoSpike));
      }
    }
  }
  return ContractResult::ok();
}

ContractResult check_fast_batch(const CaseSpec& spec) {
  Rng rng(hash_seed(spec.descriptor.seed, kStreamFastBatch));
  const std::vector<double> g = random_conductances(spec, rng);
  const FastMvm fast(spec.config.circuit, spec.rows, spec.cols, g);
  const std::size_t n = std::max<std::size_t>(spec.batch, 2);
  const std::size_t rows = spec.rows;
  const std::size_t cols = spec.cols;
  // n drawn samples, then one all-silent sample.
  std::vector<double> t_in((n + 1) * rows);
  const SpikeCodec codec(spec.config.circuit, spec.config.quantize_spikes);
  for (std::size_t i = 0; i < n * rows; ++i) {
    t_in[i] = codec.encode(rng.uniform(0.0, 1.0)).arrival_time;
  }
  // Silence mask: each sample silences rows at its own rate, half as
  // t = 0 and half as kNoSpike, so row lists range from full to empty.
  for (std::size_t s = 0; s < n; ++s) {
    const double rate = rng.uniform(0.0, 1.0);
    for (std::size_t r = 0; r < rows; ++r) {
      const double u = rng.uniform(0.0, 1.0);
      if (u < rate) {
        t_in[s * rows + r] = u < 0.5 * rate ? 0.0 : FastMvm::kNoSpike;
      }
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    t_in[n * rows + r] = r % 2 == 0 ? 0.0 : FastMvm::kNoSpike;
  }

  std::vector<double> batch_out((n + 1) * cols, 0.0);
  FastMvm::BatchScratch scratch;
  fast.mvm_times_batch(t_in, n + 1, batch_out, scratch);
  std::string failure;
  const auto matches = [&](const char* what, std::size_t s,
                           std::span<const double> got) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      const double batched = batch_out[s * cols + i];
      if (std::memcmp(&batched, &got[i], sizeof(double)) != 0) {
        failure = fail_at(what, s * cols + i, got[i], batched);
        return false;
      }
    }
    return true;
  };
  // S1, then the voltage stage over the rows driven in any of the
  // given samples, as the forward loop runs them.
  std::vector<double> v_wl;
  std::vector<std::uint32_t> driven;
  std::vector<double> out;
  const auto run_listed = [&](std::span<const double> samples,
                              std::size_t m) {
    v_wl.resize(samples.size());
    FastMvm::wordline(spec.config.circuit, samples, v_wl);
    fast.driven_rows(v_wl, m, rows, driven);
    out.assign(m * cols, 0.0);
    fast.mvm_voltages_batch(v_wl, m, rows, driven, out, cols);
  };

  // Per sample: single, and the row list of its driven rows (empty
  // for the all-silent last sample).
  for (std::size_t s = 0; s <= n; ++s) {
    const auto sample = std::span<const double>(t_in).subspan(s * rows, rows);
    out.assign(cols, 0.0);
    fast.mvm_times(sample, out);
    if (!matches("single vs batched FastMvm", s, out)) {
      return ContractResult::fail(failure);
    }
    run_listed(sample, 1);
    if (!matches("row-list vs batched FastMvm", s, out)) {
      return ContractResult::fail(failure);
    }
  }
  // The whole batch over the rows driven in any sample.
  run_listed(t_in, n + 1);
  if (!matches("batch row-list vs batched FastMvm", 0, out)) {
    return ContractResult::fail(failure);
  }
  return ContractResult::ok();
}

ContractResult check_perm_columns(const CaseSpec& spec) {
  Rng rng(hash_seed(spec.descriptor.seed, kStreamPerm));
  const std::vector<double> g = random_conductances(spec, rng);
  const std::vector<std::size_t> perm = rng.permutation(spec.cols);
  // Column c of the permuted matrix is column perm[c] of the original;
  // each column's row order — and therefore its summation order — is
  // untouched, so outputs must permute bit-for-bit.
  std::vector<double> g_perm(g.size());
  for (std::size_t r = 0; r < spec.rows; ++r) {
    for (std::size_t c = 0; c < spec.cols; ++c) {
      g_perm[r * spec.cols + c] = g[r * spec.cols + perm[c]];
    }
  }
  const FastMvm a(spec.config.circuit, spec.rows, spec.cols, g);
  const FastMvm b(spec.config.circuit, spec.rows, spec.cols, g_perm);

  std::vector<double> t_in(spec.rows);
  const SpikeCodec codec(spec.config.circuit, spec.config.quantize_spikes);
  for (double& t : t_in) t = codec.encode(rng.uniform(0.0, 1.0)).arrival_time;
  std::vector<double> out_a(spec.cols, 0.0), out_b(spec.cols, 0.0);
  a.mvm_times(t_in, out_a);
  b.mvm_times(t_in, out_b);
  for (std::size_t c = 0; c < spec.cols; ++c) {
    const double expect = out_a[perm[c]];
    if (std::memcmp(&out_b[c], &expect, sizeof(double)) != 0) {
      return ContractResult::fail(
          fail_at("column permutation", c, out_b[c], expect));
    }
  }
  return ContractResult::ok();
}

ContractResult check_weight_scale_monotone(const CaseSpec& spec) {
  Rng rng(hash_seed(spec.descriptor.seed, kStreamMonotone));
  const std::vector<double> g = random_conductances(spec, rng);
  const double lambda = rng.uniform(1.1, 3.0);
  std::vector<double> g_scaled(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) g_scaled[i] = lambda * g[i];
  const FastMvm a(spec.config.circuit, spec.rows, spec.cols, g);
  const FastMvm b(spec.config.circuit, spec.rows, spec.cols, g_scaled);

  std::vector<double> t_in(spec.rows);
  const SpikeCodec codec(spec.config.circuit, spec.config.quantize_spikes);
  for (double& t : t_in) t = codec.encode(rng.uniform(0.0, 1.0)).arrival_time;
  std::vector<double> out_a(spec.cols, 0.0), out_b(spec.cols, 0.0);
  a.mvm_times(t_in, out_a);
  b.mvm_times(t_in, out_b);
  // Scaling every conductance leaves v_eq unchanged and grows the
  // saturation factor k, so the held voltage rises and the S2 crossing
  // can only move later (kNoSpike == +inf is the latest value).
  const double eps = 1e-12 * spec.config.circuit.slice_length;
  for (std::size_t c = 0; c < spec.cols; ++c) {
    if (out_b[c] < out_a[c] - eps) {
      return ContractResult::fail(
          fail_at("spike-time monotonicity under weight scaling", c,
                  out_b[c], out_a[c]));
    }
  }
  return ContractResult::ok();
}

ContractResult check_zero_input_bias(const CaseSpec& spec) {
  const auto& params = spec.config.circuit;
  if (params.comparator_offset != 0.0 || params.comparator_delay != 0.0 ||
      params.comparator_offset_sigma != 0.0) {
    return ContractResult::skip(
        "comparator non-idealities shift the zero-input spike");
  }
  Rng rng(hash_seed(spec.descriptor.seed, kStreamZeroInput));
  MatrixFixture fx = build_matrix(spec, rng);
  // All-zero input: every wordline holds 0 V, every current sum is
  // exactly 0, every column spikes at t = 0 and recovers exactly 0 —
  // regardless of the programmed weights, faults or drift.  The output
  // must be the bias, bit for bit.
  const std::vector<double> x(spec.inputs, 0.0);
  std::vector<double> y(spec.classes, 0.0);
  fx.matrix->forward(x, y);
  for (std::size_t j = 0; j < spec.classes; ++j) {
    if (std::memcmp(&y[j], &fx.bias[j], sizeof(double)) != 0) {
      return ContractResult::fail(
          fail_at("zero input must yield the exact bias", j, y[j],
                  fx.bias[j]));
    }
  }
  return ContractResult::ok();
}

ContractResult check_analog_vs_digital(const CaseSpec& spec) {
  const EngineConfig& cfg = spec.config;
  const auto& params = cfg.circuit;
  if (params.model != circuits::TransferModel::kExact) {
    return ContractResult::skip("linear model: transfer error unbounded by "
                                "the fidelity model");
  }
  if (cfg.reliability.enabled || cfg.retention_time > 0.0 ||
      cfg.model_wire_ir_drop) {
    return ContractResult::skip(
        "faults / drift / IR drop exceed the clean-path error model");
  }
  if (params.comparator_offset != 0.0 || params.comparator_delay != 0.0 ||
      params.comparator_offset_sigma != 0.0) {
    return ContractResult::skip("comparator non-idealities not in the "
                                "clean-path error model");
  }

  Rng rng(hash_seed(spec.descriptor.seed, kStreamAnalogDigital));
  MatrixFixture fx = build_matrix(spec, rng);
  fx.matrix->set_input_scale(1.0);
  constexpr std::size_t kSamples = 8;
  std::vector<double> batch(kSamples * spec.inputs);
  for (double& v : batch) v = rng.uniform(0.0, 1.0);
  fx.matrix->calibrate_alpha(batch, kSamples);

  // Fidelity-model-predicted bound on |analog - digital| per output.
  //
  // The readout recovers the exact current sum (v_cog * g_tot / k),
  // so on the clean path only two error sources remain:
  //  * input value quantization — the encoded arrival snaps to the
  //    clock grid; one slot spans at most (v_s/tau) * clock in volts,
  //    i.e. dx in value units after the decode scaling;
  //  * realized weights — per cell: half a conductance level, the
  //    write-verify residue, a 6.5-sigma variation excursion and the
  //    1T1R series compression g^2 * r_on; twice (both columns of the
  //    pair), converted by weight_per_siemens.
  const SpikeCodec codec(params, cfg.quantize_spikes);
  const double alpha = fx.matrix->time_scale();
  const double dx = cfg.quantize_spikes
                        ? (params.v_s / params.tau_gd()) *
                              params.clock_period / (alpha * codec.v_full())
                        : 0.0;
  const auto mapped = crossbar::map_weights(fx.weights, spec.inputs,
                                            spec.classes, cfg.device,
                                            cfg.mapping);
  const auto& dev = cfg.device;
  const double g_step =
      (dev.g_max() - dev.g_min()) / std::max(1, dev.levels - 1);
  const double dg_cell = 0.5 * g_step +
                         dev.write_verify_tolerance * dev.g_max() +
                         6.5 * dev.variation_sigma * dev.g_max() +
                         dev.g_max() * dev.g_max() * dev.transistor_r_on;
  const double dw = 2.0 * mapped.weight_per_siemens * dg_cell;
  constexpr double kSafety = 4.0;

  ProgrammedMatrix::ProbeStats stats;
  std::vector<double> y(spec.classes, 0.0);
  for (std::size_t s = 0; s < kSamples; ++s) {
    const std::span<const double> x(batch.data() + s * spec.inputs,
                                    spec.inputs);
    fx.matrix->forward_probed(x, y, stats);
    if (stats.no_spike > 0) {
      return ContractResult::skip(
          "a column censored at the slice boundary; the clean-path bound "
          "does not model clamping");
    }
    for (std::size_t j = 0; j < spec.classes; ++j) {
      double digital = fx.bias[j];
      double bound = 0.0;
      for (std::size_t i = 0; i < spec.inputs; ++i) {
        const double w = fx.weights[i * spec.classes + j];
        digital += w * x[i];
        bound += (std::fabs(w) + dw) * dx + std::fabs(x[i]) * dw;
      }
      bound = kSafety * bound + 1e-9 * (1.0 + std::fabs(digital));
      if (!(std::fabs(y[j] - digital) <= bound)) {
        std::ostringstream os;
        os << "analog MVM outside the fidelity bound: sample " << s
           << " output " << j << ": " << describe_mismatch(y[j], digital)
           << ", bound " << bound;
        return ContractResult::fail(os.str());
      }
    }
  }
  return ContractResult::ok();
}

ContractResult check_matrix_batch(const CaseSpec& spec) {
  Rng rng(hash_seed(spec.descriptor.seed, kStreamMatrixBatch));
  MatrixFixture fx = build_matrix(spec, rng);
  const std::size_t n = std::max<std::size_t>(spec.batch, 2);
  std::vector<double> batch(n * spec.inputs);
  for (double& v : batch) v = rng.uniform(0.0, 1.0);

  std::vector<double> y_batch(n * spec.classes, 0.0);
  ProgrammedMatrix::BatchWorkspace ws;
  fx.matrix->forward_batch(batch, n, y_batch, ws);

  // forward_batch is encode() followed by forward_voltages_batch.
  std::vector<double> v(n * spec.inputs), y_volts(n * spec.classes, 0.0);
  fx.matrix->encode(batch, v);
  fx.matrix->forward_voltages_batch(v, n, y_volts, ws);
  if (!bit_identical(y_batch, y_volts)) {
    return ContractResult::fail(
        "encode + forward_voltages_batch differs from forward_batch");
  }

  ProgrammedMatrix::ProbeStats stats;
  std::vector<double> y(spec.classes, 0.0), y_probed(spec.classes, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const std::span<const double> x(batch.data() + s * spec.inputs,
                                    spec.inputs);
    fx.matrix->forward(x, y);
    fx.matrix->forward_probed(x, y_probed, stats);
    if (!bit_identical(y, y_probed)) {
      return ContractResult::fail(
          fail_at("probed vs plain forward", s, y_probed[0], y[0]));
    }
    for (std::size_t j = 0; j < spec.classes; ++j) {
      const double batched = y_batch[s * spec.classes + j];
      if (std::memcmp(&batched, &y[j], sizeof(double)) != 0) {
        return ContractResult::fail(fail_at("batched vs single forward",
                                            s * spec.classes + j, batched,
                                            y[j]));
      }
    }
  }
  return ContractResult::ok();
}

ContractResult check_threads_identical(const CaseSpec& spec) {
  Rng rng(hash_seed(spec.descriptor.seed, kStreamThreads));
  NetworkFixture fx = build_network_inputs(spec, rng);
  const ResipeNetwork net(*fx.model, spec.config, fx.calibration);

  ThreadGuard guard;
  std::vector<nn::Tensor> logits;
  for (const std::size_t threads : {1, 2, 8}) {
    set_default_threads(threads);
    logits.push_back(net.forward(fx.batch));
  }
  for (std::size_t i = 1; i < logits.size(); ++i) {
    if (!bit_identical(logits[0].data(), logits[i].data())) {
      return ContractResult::fail(
          "logits differ between 1-thread and " +
          std::string(i == 1 ? "2" : "8") + "-thread execution");
    }
  }
  return ContractResult::ok();
}

ContractResult check_off_flags_identical(const CaseSpec& spec) {
  Rng rng(hash_seed(spec.descriptor.seed, kStreamOffFlags));
  NetworkFixture fx = build_network_inputs(spec, rng);

  // A: the generated config with both master switches forced off but
  // every sub-knob left as drawn.  B: the same config with the whole
  // sub-structs reset to defaults.  The documented claim is that a
  // disabled subsystem leaves the engine on the exact legacy path, so
  // its other knobs must be unreachable.
  EngineConfig cfg_a = spec.config;
  cfg_a.reliability.enabled = false;
  cfg_a.introspect.enabled = false;
  EngineConfig cfg_b = cfg_a;
  cfg_b.reliability = reliability::ReliabilityConfig{};
  cfg_b.reliability.enabled = false;
  cfg_b.introspect = introspect::InspectOptions{};

  const ResipeNetwork net_a(*fx.model, cfg_a, fx.calibration);
  const ResipeNetwork net_b(*fx.model, cfg_b, fx.calibration);
  const nn::Tensor ya = net_a.forward(fx.batch);
  const nn::Tensor yb = net_b.forward(fx.batch);
  if (!bit_identical(ya.data(), yb.data())) {
    return ContractResult::fail(
        "disabled reliability/introspection knobs leaked into the logits");
  }
  return ContractResult::ok();
}

ContractResult check_perf_accounting_identity(const CaseSpec& spec) {
  Rng rng(hash_seed(spec.descriptor.seed, kStreamPerfAccounting));
  NetworkFixture fx = build_network_inputs(spec, rng);
  const ResipeNetwork net(*fx.model, spec.config, fx.calibration);

  // Spans and their work models only count — they never touch kernel
  // data — so switching telemetry on must leave every logit
  // bit-identical.  Restore the switch on exit so this contract cannot
  // leak state into the next one.
  const bool telem_was = telemetry::enabled();
  telemetry::set_enabled(false);
  const nn::Tensor y_off = net.forward(fx.batch);
  telemetry::set_enabled(true);
  const nn::Tensor y_on = net.forward(fx.batch);
  telemetry::set_enabled(telem_was);

  if (!bit_identical(y_off.data(), y_on.data())) {
    return ContractResult::fail(
        "switching on telemetry (spans and work) perturbed the logits");
  }
  return ContractResult::ok();
}

ContractResult check_serving_identity(const CaseSpec& spec) {
  Rng rng(hash_seed(spec.descriptor.seed, kStreamServing));
  NetworkFixture fx = build_network_inputs(spec, rng);

  // With faults off and deadlines slack, the serving layer is pure
  // routing: whatever batching, probing and dispatch order the drawn
  // ServeConfig produces, every served logit must be bit-identical to
  // the direct engine path.  Overrides below only remove the legitimate
  // reasons to shed (admission pressure, tight deadlines, trigger-happy
  // health limits); batching/backoff/probe cadence stay as drawn.
  EngineConfig cfg = spec.config;
  cfg.reliability.enabled = false;
  cfg.serve.queue_capacity = 64;
  cfg.serve.default_deadline = 1.0e3;
  cfg.serve.health.max_canary_mismatch = 1.0;
  cfg.serve.health.logit_rmse_limit = 1.0e30;
  const serve::ServeConfig& scfg = cfg.serve;

  serve::ChipPool pool(*fx.model, fx.calibration, {cfg, cfg}, scfg);
  const ResipeNetwork direct(*fx.model, cfg, fx.calibration);

  // Trace: calibration rows offered microseconds apart — fast enough
  // that batching happens, slow enough that the 64-deep queue cannot
  // fill from 6 arrivals.
  constexpr std::size_t kRequests = 6;
  const std::size_t calib_n = fx.calibration.dim(0);
  std::vector<serve::Request> trace;
  nn::Tensor direct_in({kRequests, spec.inputs});
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::size_t row = i % calib_n;
    serve::Request req;
    req.id = i;
    req.tag = row;
    req.arrival = static_cast<double>(i) * 1.0e-6;
    const auto src =
        fx.calibration.data().subspan(row * spec.inputs, spec.inputs);
    req.input.assign(src.begin(), src.end());
    std::copy(src.begin(), src.end(),
              direct_in.data().begin() +
                  static_cast<std::ptrdiff_t>(i * spec.inputs));
    trace.push_back(std::move(req));
  }
  const nn::Tensor want = direct.forward(direct_in);

  ThreadGuard guard;
  std::vector<std::vector<serve::Response>> runs;
  for (const std::size_t threads : {1, 2, 8}) {
    set_default_threads(threads);
    serve::Scheduler scheduler(pool, scfg);
    for (const serve::Request& r : trace) scheduler.submit(r);
    runs.push_back(scheduler.run());
  }

  for (std::size_t i = 0; i < kRequests; ++i) {
    const serve::Response& r = runs[0][i];
    if (r.status != serve::Response::Status::kOk) {
      std::ostringstream os;
      os << "request " << i << " not served ok with faults off and slack "
         << "deadlines: status " << serve::to_string(r.status) << " ("
         << serve::to_string(r.reason) << ")";
      return ContractResult::fail(os.str());
    }
    if (!bit_identical(r.logits,
                       want.data().subspan(i * spec.classes, spec.classes))) {
      return ContractResult::fail(fail_at("served vs direct logits", i,
                                          r.logits[0], want[i * spec.classes]));
    }
  }
  for (std::size_t t = 1; t < runs.size(); ++t) {
    for (std::size_t i = 0; i < kRequests; ++i) {
      const serve::Response& a = runs[0][i];
      const serve::Response& b = runs[t][i];
      if (a.status != b.status || a.attempts != b.attempts ||
          a.chip != b.chip ||
          std::memcmp(&a.completion, &b.completion, sizeof(double)) != 0 ||
          !bit_identical(a.logits, b.logits)) {
        std::ostringstream os;
        os << "serving trace diverged between thread counts at request "
           << i;
        return ContractResult::fail(os.str());
      }
    }
  }
  return ContractResult::ok();
}

// Tracing must observe, never steer: a Scheduler with an attached
// EventJournal has to produce bit-identical responses to one without,
// and the journal it fills has to survive the conservation audit
// against the run's own stats.  The drawn ServeConfig is used as-is —
// sheds, retries and quarantines are exactly the edge cases whose
// journaling must not perturb the replay.  ChipPool health state
// persists across runs, so each arm gets its own identically-lowered
// pool (lowering is a pure function of the config).
ContractResult check_serving_trace_identity(const CaseSpec& spec) {
  Rng rng(hash_seed(spec.descriptor.seed, kStreamServingTrace));
  NetworkFixture fx = build_network_inputs(spec, rng);

  EngineConfig cfg = spec.config;
  const serve::ServeConfig& scfg = cfg.serve;

  constexpr std::size_t kRequests = 8;
  constexpr std::uint64_t kTenants = 3;
  const std::size_t calib_n = fx.calibration.dim(0);
  std::vector<serve::Request> trace;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::size_t row = i % calib_n;
    serve::Request req;
    req.id = i;
    req.tag = row;
    req.tenant = i % kTenants;
    req.arrival = static_cast<double>(i) * 1.0e-6;
    const auto src =
        fx.calibration.data().subspan(row * spec.inputs, spec.inputs);
    req.input.assign(src.begin(), src.end());
    trace.push_back(std::move(req));
  }

  const auto run_arm = [&](serve::EventJournal* journal,
                           serve::ServingStats& stats_out) {
    serve::ChipPool pool(*fx.model, fx.calibration, {cfg, cfg}, scfg);
    serve::Scheduler scheduler(pool, scfg);
    scheduler.attach_journal(journal);
    for (const serve::Request& r : trace) scheduler.submit(r);
    std::vector<serve::Response> out = scheduler.run();
    stats_out = scheduler.stats();
    return out;
  };

  serve::ServingStats stats_plain, stats_traced;
  const std::vector<serve::Response> plain = run_arm(nullptr, stats_plain);

  // The journal is sized to the trace, not to the 2^20-slot default
  // whose allocation dominated every fuzz run.  Tracing must not steer,
  // so the traced arm replays the plain arm's schedule, whose responses
  // bound its events.  A request records per attempt an admit, a
  // dispatch, an attempt-done and at most one retry, plus one final
  // admit shed in the queue and one terminal event; each batch carries
  // at least one dispatch and records one batch-form.  Each probe round
  // records a probe and at most one transition per chip, and rounds run
  // every canary period until the last event: the last completion, or
  // a stale batch timeout one batch window after it.  A journal that
  // still overflows counts drops, which fails the audit below.
  std::size_t capacity = 0;
  double horizon = 0.0;
  for (const serve::Response& r : plain) {
    capacity += 5 * r.attempts + 2;
    horizon = std::max(horizon, r.completion);
  }
  constexpr std::size_t kChips = 2;  // the pool run_arm builds
  const double rounds = std::min(
      std::floor((horizon + scfg.batch_window) / scfg.health.canary_period),
      double{1 << 20});
  capacity += 2 * kChips * (static_cast<std::size_t>(rounds) + 2);
  serve::EventJournal journal(std::min(capacity, std::size_t{1} << 20));
  const std::vector<serve::Response> traced =
      run_arm(&journal, stats_traced);

  for (std::size_t i = 0; i < kRequests; ++i) {
    const serve::Response& a = plain[i];
    const serve::Response& b = traced[i];
    if (a.id != b.id || a.tag != b.tag || a.tenant != b.tenant ||
        a.status != b.status || a.reason != b.reason ||
        a.attempts != b.attempts || a.chip != b.chip ||
        a.degraded_outputs != b.degraded_outputs ||
        std::memcmp(&a.arrival, &b.arrival, sizeof(double)) != 0 ||
        std::memcmp(&a.completion, &b.completion, sizeof(double)) != 0 ||
        !bit_identical(a.logits, b.logits)) {
      std::ostringstream os;
      os << "attaching a journal changed response " << i << " (status "
         << serve::to_string(a.status) << " vs "
         << serve::to_string(b.status) << ")";
      return ContractResult::fail(os.str());
    }
  }

  const serve::TraceAudit audit = serve::audit_trace(journal, stats_traced);
  if (!audit.ok()) {
    std::ostringstream os;
    os << "journal failed the conservation audit: "
       << audit.issues.front() << " (" << audit.issues.size()
       << " issue(s) total)";
    return ContractResult::fail(os.str());
  }
  if (audit.requests != kRequests) {
    std::ostringstream os;
    os << "journal saw " << audit.requests << " requests, submitted "
       << kRequests;
    return ContractResult::fail(os.str());
  }
  return ContractResult::ok();
}

// ProgrammedMatrix::forward_batch on both paths: bit-identical under
// the linear model, where no transcendental runs anywhere in the chain,
// and otherwise within a bound derived from the one divergence source
// (the polynomial exp/log) through S1, S2 and the recovery ramp.  The
// inputs are the ramp voltages of whole clock steps, so the codec snaps
// them to the same time on both paths (an unquantized codec differs by
// its log's ulp error, booked per row below).
//
// The bound is carried in the recovered-voltage domain, where the S2
// pole cancels: recovery maps a column's spike time back through the
// ramp, whose slope (v_s - v)/tau times the S2 inversion's
// tau/(v_s - th) is at most 1.  So per column
//   dv_rec <= 2 d_th + 3 kTrans eps v_s           (S2 log, ramp exp)
//   d_th   <= dv_row k + 8 eps |th|
// with dv_row the S1 exp plus the codec log; both paths sum each column
// in the same order with the same operations, so the sum only carries
// that error forward.  A column that falls
// silent on one path only sits within d_th of the silence cut, and
// the ramp moves v by at most that much there, so neither the
// saturation pole nor the slice boundary needs an exclusion zone.
// Recovery scales v by g_total/k (increasing in g_total, which the
// device envelope caps at rows * 2 g_max per tile), and the decode
// scale is weight_per_siemens * input_scale / (alpha * v_full).
ContractResult check_simd_matrix_recovery(const CaseSpec& spec) {
  const EngineConfig& cfg = spec.config;
  const auto& params = cfg.circuit;
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  const double kTrans = simd::kTranscendentalUlp + 8.0;
  constexpr double kSafety = 4.0;
  const bool linear = params.model == circuits::TransferModel::kLinear;
  const double v_s = params.v_s;

  Rng rng(hash_seed(spec.descriptor.seed, kStreamSimdEquivMatrix));
  const MatrixFixture fx = build_matrix(spec, rng);
  const ProgrammedMatrix& pm = *fx.matrix;
  const SpikeCodec codec(params, cfg.quantize_spikes);
  const std::size_t n = std::max<std::size_t>(spec.batch, 2);
  std::vector<double> x(n * spec.inputs);
  // Whole steps up to t_full only: a t_full off the clock grid would be
  // a rounding tie for the snap.
  const double steps = std::floor(codec.t_full() / params.clock_period) + 1;
  // A fresh matrix has input scale 1 and alpha 1: x is the codec input.
  for (double& v : x) {
    const double t =
        std::floor(rng.uniform(0.0, steps)) * params.clock_period;
    v = codec.voltage_of(t) / codec.v_full();
  }

  std::vector<double> got(n * spec.classes), ref(n * spec.classes);
  ProgrammedMatrix::BatchWorkspace ws;
  pm.forward_batch(x, n, got, ws);
  {
    simd::ForceScalarGuard guard;
    pm.forward_batch(x, n, ref, ws);
  }

  const double rows =
      static_cast<double>(std::min(cfg.tile_rows, spec.inputs));
  const double blocks = static_cast<double>(
      (spec.inputs + cfg.tile_rows - 1) / cfg.tile_rows);
  const double a = params.comp_stage / params.c_cog;
  const double g_col = rows * 2.0 * cfg.device.g_max();
  // The bound is the exact model's; a linear-model output is settled on
  // its bits below.
  const double k_max = 1.0 - std::exp(-a * g_col);
  const double gk_max = g_col / k_max;
  const double th_abs = v_s * k_max + std::fabs(params.comparator_offset) +
                        8.0 * params.comparator_offset_sigma;
  const double dv_row = 2.0 * kTrans * kEps * v_s;
  // Per column: the threshold error times g_total / k <= g_col, plus the
  // transcendental and rounding terms times g_total / k <= gk_max.
  const double d_col =
      2.0 * dv_row * g_col +
      (16.0 * kEps * th_abs + (3.0 * kTrans + 4.0) * kEps * v_s) * gk_max;
  const double rec_max = blocks * v_s * gk_max;
  // Two columns per output, each summed over the row blocks.
  const double d_diff = 2.0 * (blocks * d_col + 2.0 * blocks * kEps * rec_max);
  const double w_per_s =
      crossbar::map_weights(fx.weights, spec.inputs, spec.classes,
                            cfg.device, cfg.mapping)
          .weight_per_siemens;
  const double scale =
      w_per_s * pm.input_scale() / (pm.time_scale() * codec.v_full());

  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &ref[i], sizeof(double)) == 0) continue;
    if (linear) {
      return ContractResult::fail(fail_at(
          "SIMD vs scalar ProgrammedMatrix output under the linear model "
          "(no transcendental: must be bit-identical)",
          i, got[i], ref[i]));
    }
    const double bound =
        kSafety * scale * d_diff +
        4.0 * kEps * (std::fabs(ref[i]) + 2.0 * scale * rec_max);
    if (!(std::fabs(got[i] - ref[i]) <= bound)) {
      std::ostringstream os;
      os << "SIMD vs scalar ProgrammedMatrix output [" << i
         << "]: " << describe_mismatch(got[i], ref[i]) << ", derived bound "
         << bound;
      return ContractResult::fail(os.str());
    }
  }
  return ContractResult::ok();
}

// SIMD path vs scalar reference, within a bound derived from the
// kernel's numeric contract rather than an arbitrary tolerance.
//
// The SIMD kernels are the scalar reference's bodies at a wider vector
// type (include/resipe/common/simd.hpp): per-lane IEEE arithmetic, each
// column summed over its rows in the same order with an unfused
// multiply and add.  They differ in one way only: exp/log are
// polynomial, within simd::kTranscendentalUlp ulp of libm.  So under
// the linear model, which runs no transcendental, every output must be
// bit-identical.  Otherwise (the exact model) the check propagates the
// exp/log error through the recovery chain:
//   d_weighted = dv*g_total                            (S1 exp)
//   d_threshold = d_weighted * k / g_total + rounding
//   d_t = tau * d_th / (v_s - th) plus the log's own ulp bound — the
//         saturation pole is real, so a threshold within its bound of
//         v_s (or a spike time within bound of the slice end) may
//         legitimately land on either side of the silence cut and is
//         not a violation.
// A matrix-level pass adds column recovery (ProgrammedMatrix,
// whole forward_batch); see check_simd_matrix_recovery.  A
// network-level pass then requires the argmax decision to match
// wherever the scalar logit margin exceeds a conservative noise floor.
ContractResult check_simd_equivalence(const CaseSpec& spec) {
  if (simd::native_lanes == 1) {
    return ContractResult::skip("scalar build: no vector path to compare");
  }
  if (!simd::enabled()) {
    return ContractResult::skip("RESIPE_SIMD=scalar: vector path disabled");
  }
  const auto& params = spec.config.circuit;
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  const double kTrans = simd::kTranscendentalUlp + 8.0;
  constexpr double kSafety = 4.0;
  const bool linear = params.model == circuits::TransferModel::kLinear;
  const double tau = params.tau_gd();
  const double v_s = params.v_s;

  Rng rng(hash_seed(spec.descriptor.seed, kStreamSimdEquiv));
  const std::vector<double> g = random_conductances(spec, rng);
  const FastMvm fast(params, spec.rows, spec.cols, g);
  const SpikeCodec codec(params, spec.config.quantize_spikes);
  const std::size_t n = std::max<std::size_t>(spec.batch, 2);
  std::vector<double> t_in(n * spec.rows);
  for (double& t : t_in) t = codec.encode(rng.uniform(0.0, 1.0)).arrival_time;

  std::vector<double> vec_out(n * spec.cols, 0.0);
  FastMvm::BatchScratch scratch;
  fast.mvm_times_batch(t_in, n, vec_out, scratch);
  std::vector<double> ref_out(n * spec.cols, 0.0);
  {
    simd::ForceScalarGuard guard;
    FastMvm::BatchScratch ref_scratch;
    fast.mvm_times_batch(t_in, n, ref_out, ref_scratch);
  }

  std::vector<double> v_wl(spec.rows, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    // Reference S1 voltages of the exact model, recomputed for the
    // bound (a linear-model output is settled on its bits first).
    for (std::size_t r = 0; r < spec.rows; ++r) {
      const double t = t_in[s * spec.rows + r];
      if (!(t >= 0.0) || t == FastMvm::kNoSpike || t > params.slice_length) {
        v_wl[r] = 0.0;
      } else {
        v_wl[r] = v_s * (1.0 - std::exp(-t / tau));
      }
    }
    for (std::size_t c = 0; c < spec.cols; ++c) {
      const std::size_t idx = s * spec.cols + c;
      const double got = vec_out[idx];
      const double ref = ref_out[idx];
      if (std::memcmp(&got, &ref, sizeof(double)) == 0) continue;
      if (linear) {
        return ContractResult::fail(fail_at(
            "SIMD vs scalar spike time under the linear model (no "
            "transcendental: must be bit-identical)",
            idx, got, ref));
      }
      const double g_tot = fast.g_total(c);
      if (g_tot <= 0.0) {
        // Unprogrammed column: both paths must report the comparator
        // delay exactly; any difference is a wiring bug, not rounding.
        return ContractResult::fail(
            fail_at("SIMD vs scalar on unprogrammed column", idx, got, ref));
      }

      double weighted = 0.0;
      for (std::size_t r = 0; r < spec.rows; ++r) {
        weighted += v_wl[r] * g[r * spec.cols + c];
      }
      const double d_weighted = kTrans * kEps * v_s * g_tot;
      const double k = fast.k(c);
      const double th_ref = weighted / g_tot * k + params.comparator_offset;
      const double d_th =
          d_weighted / g_tot * k + 8.0 * kEps * std::fabs(th_ref);

      // Raw reference crossing (before the slice-silence cut).
      double t_raw;
      if (th_ref <= 0.0) {
        t_raw = 0.0;
      } else if (th_ref >= v_s) {
        t_raw = FastMvm::kNoSpike;
      } else {
        t_raw = -tau * std::log(1.0 - th_ref / v_s);
      }
      t_raw += params.comparator_delay;

      const double denom = v_s - th_ref - kSafety * d_th;
      if (denom <= 0.0) {
        // Threshold within its own error bound of the saturation pole:
        // either side may (not) spike; no bounded statement.
        continue;
      }
      const double d_t =
          kSafety * (tau * d_th / denom +
                     kTrans * kEps *
                         (tau + std::min(t_raw, params.slice_length))) +
          1e-21;

      const bool ref_silent = ref == FastMvm::kNoSpike;
      const bool got_silent = got == FastMvm::kNoSpike;
      if (ref_silent != got_silent) {
        // A spike within the bound of the slice end may fall on either
        // side of the silence cut.
        if (std::fabs(t_raw - params.slice_length) <= d_t) continue;
        return ContractResult::fail(fail_at(
            "SIMD/scalar silence disagreement beyond the derived bound",
            idx, got, ref));
      }
      if (!(std::fabs(got - ref) <= d_t)) {
        std::ostringstream os;
        os << "SIMD vs scalar spike time [" << idx
           << "]: " << describe_mismatch(got, ref) << ", derived bound "
           << d_t;
        return ContractResult::fail(os.str());
      }
    }
  }

  if (ContractResult r = check_simd_matrix_recovery(spec); r.violated()) {
    return r;
  }

  // Network level: the classification decision must be SIMD-invariant
  // wherever the scalar margin clears a conservative noise floor.
  NetworkFixture fx = build_network_inputs(spec, rng);
  const ResipeNetwork net(*fx.model, spec.config, fx.calibration);
  const nn::Tensor vec_logits = net.forward(fx.batch);
  const nn::Tensor ref_logits = [&] {
    simd::ForceScalarGuard guard;
    return net.forward(fx.batch);
  }();
  const std::size_t samples = vec_logits.data().size() / spec.classes;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto a = vec_logits.data().subspan(s * spec.classes, spec.classes);
    const auto b = ref_logits.data().subspan(s * spec.classes, spec.classes);
    std::size_t best = 0;
    double scale = 0.0;
    for (std::size_t j = 0; j < spec.classes; ++j) {
      if (b[j] > b[best]) best = j;
      scale = std::max(scale, std::fabs(b[j]));
    }
    double runner_up = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < spec.classes; ++j) {
      if (j != best) runner_up = std::max(runner_up, b[j]);
    }
    const double margin = b[best] - runner_up;
    if (!(margin > 1e-6 * (scale + 1.0))) continue;
    std::size_t got_best = 0;
    for (std::size_t j = 0; j < spec.classes; ++j) {
      if (a[j] > a[got_best]) got_best = j;
    }
    if (got_best != best) {
      std::ostringstream os;
      os << "SIMD flipped the argmax on sample " << s << ": scalar class "
         << best << " (margin " << margin << "), SIMD class " << got_best;
      return ContractResult::fail(os.str());
    }
  }
  return ContractResult::ok();
}

/// Keeps every matrix step's matrix and boundary tensors of a
/// forward_observed pass.
struct MatrixStepCapture : resipe_core::LayerObserver {
  std::vector<const ProgrammedMatrix*> matrices;
  std::vector<nn::Tensor> inputs;
  std::vector<nn::Tensor> outputs;
  void on_step(std::size_t, nn::Layer&, const ProgrammedMatrix* m, bool,
               const nn::Tensor& in, const nn::Tensor& out) override {
    if (m == nullptr) return;
    matrices.push_back(m);
    inputs.push_back(in);
    outputs.push_back(out);
  }
};

ContractResult check_sparse_dense_identity(const CaseSpec& spec) {
  Rng rng(hash_seed(spec.descriptor.seed, kStreamSparseDense));
  NetworkFixture fx = build_network_inputs(spec, rng);
  // Zero out a random half of the batch so the event path actually
  // meets silent rows (the fixture draws dense positive activations);
  // fully dense and fully silent inputs are covered by the extremes of
  // the bernoulli draw across cases.
  for (double& v : fx.batch.data()) {
    if (rng.bernoulli(0.5)) v = 0.0;
  }
  // Silence at batch level: one drawn band of inputs in every sample,
  // then a second band per sample, so a row window can be silent across
  // the whole batch or in some of its samples only.
  const std::size_t in = spec.inputs;
  const std::size_t batch = fx.batch.dim(0);
  const auto silence_band = [&](std::size_t s0, std::size_t s1) {
    const auto lo = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(in) - 1));
    const auto hi = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(lo) + 1, static_cast<std::int64_t>(in)));
    for (std::size_t s = s0; s < s1; ++s) {
      std::fill_n(fx.batch.data().begin() + s * in + lo, hi - lo, 0.0);
    }
  };
  silence_band(0, batch);
  for (std::size_t s = 0; s < batch; ++s) silence_band(s, s + 1);

  EngineConfig cfg_dense = spec.config;
  cfg_dense.events.enabled = false;
  EngineConfig cfg_event = spec.config;
  cfg_event.events.enabled = true;
  // The flag is never consulted while programming, so both engines
  // hold identical conductances.
  const ResipeNetwork net_dense(*fx.model, cfg_dense, fx.calibration);
  const ResipeNetwork net_event(*fx.model, cfg_event, fx.calibration);

  const nn::Tensor ref = net_dense.forward(fx.batch);
  MatrixStepCapture steps;
  const nn::Tensor got = net_event.forward_observed(fx.batch, steps);
  if (!bit_identical(ref.data(), got.data())) {
    return ContractResult::fail(
        "event-driven logits differ from the dense reference");
  }
  // The network hands its matrices a few samples per call; run each
  // matrix step's whole input as one batch too, so the row lists span
  // samples that spike in different rows.
  for (std::size_t i = 0; i < steps.matrices.size(); ++i) {
    const ProgrammedMatrix& pm = *steps.matrices[i];
    const std::size_t n = steps.inputs[i].dim(0);
    std::vector<double> y(n * pm.out_features());
    ProgrammedMatrix::BatchWorkspace ws;
    pm.forward_batch(steps.inputs[i].data(), n, y, ws);
    if (!bit_identical(y, steps.outputs[i].data())) {
      return ContractResult::fail(
          "event-driven forward_batch over the whole batch differs from "
          "the network's output of matrix step " + std::to_string(i));
    }
  }

  ThreadGuard guard;
  for (const std::size_t threads : {1, 2, 8}) {
    set_default_threads(threads);
    const nn::Tensor again = net_event.forward(fx.batch);
    if (!bit_identical(ref.data(), again.data())) {
      return ContractResult::fail("event-driven logits drift at " +
                                  std::to_string(threads) + " threads");
    }
  }
  return ContractResult::ok();
}

ContractResult check_conv_lowering_identity(const CaseSpec& spec) {
  Rng rng(hash_seed(spec.descriptor.seed, kStreamConvLowering));
  // The geometry is drawn here, not in the CaseSpec, so the committed
  // corpus replays this contract unchanged.  Drawing the kernel, stride
  // and padding first lets the image size keep the output non-empty.
  static constexpr std::size_t kKernels[] = {1, 2, 3, 5};
  const auto draw = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(lo, hi));
  };
  const std::size_t cin = draw(1, 3);
  const std::size_t cout = draw(1, 6);
  const std::size_t k = kKernels[draw(0, 3)];
  const std::size_t stride = draw(1, 2);
  const std::size_t pad = draw(0, static_cast<std::int64_t>(k / 2));
  const auto min_side =
      static_cast<std::int64_t>(std::max<std::size_t>(3, k - 2 * pad));
  const std::size_t h = draw(min_side, 9);
  const std::size_t w = draw(min_side, 9);
  const std::size_t oh = (h + 2 * pad - k) / stride + 1;
  const std::size_t ow = (w + 2 * pad - k) / stride + 1;

  nn::Sequential model("verify_conv");
  model.emplace<nn::Conv2d>(cin, cout, k, stride, pad, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(cout * oh * ow, spec.classes, rng);
  nn::Tensor calibration({4, cin, h, w});
  for (double& v : calibration.data()) v = rng.uniform(0.0, 1.0);
  // Negative and over-range values engage both encode clamps, exact
  // zeros make silent rows, and any padding gathers the time of 0.
  nn::Tensor batch({std::max<std::size_t>(spec.batch, 2), cin, h, w});
  for (double& v : batch.data()) {
    v = rng.uniform(-0.5, 1.5);
    if (rng.bernoulli(1.0 / 3.0)) v = 0.0;
  }
  const ResipeNetwork net(model, spec.config, calibration);

  // 1. The conv step equals a replay through the public value-domain
  //    path: im2col patches gathered row by row, then forward_batch.
  MatrixStepCapture steps;
  const nn::Tensor observed = net.forward_observed(batch, steps);
  if (steps.matrices.empty()) {
    return ContractResult::fail("the conv layer was not lowered to a matrix");
  }
  const nn::Tensor& conv_in = steps.inputs.front();
  const nn::Tensor& conv_out = steps.outputs.front();
  const std::size_t in = cin * k * k;
  std::vector<double> patches(ow * in), row(ow * cout);
  ProgrammedMatrix::BatchWorkspace ws;
  for (std::size_t img = 0; img < batch.dim(0); ++img) {
    for (std::size_t r = 0; r < oh; ++r) {
      for (std::size_t c = 0; c < ow; ++c) {
        resipe_core::gather_conv_patch(
            conv_in, img, cin, k, stride, pad, r, c,
            std::span<double>(patches.data() + c * in, in));
      }
      steps.matrices.front()->forward_batch(patches, ow, row, ws);
      for (std::size_t c = 0; c < ow; ++c) {
        for (std::size_t oc = 0; oc < cout; ++oc) {
          const double got = conv_out.at(img, oc, r, c);
          const double want = row[c * cout + oc];
          if (std::memcmp(&got, &want, sizeof(double)) != 0) {
            std::ostringstream os;
            os << "conv step vs patch replay at (img " << img << ", oc "
               << oc << ", r " << r << ", c " << c << "), k " << k
               << " stride " << stride << " pad " << pad << ": "
               << describe_mismatch(got, want);
            return ContractResult::fail(os.str());
          }
        }
      }
    }
  }

  // 2. The per-image encode and the functional steps run on the pool;
  //    the logits may not depend on the thread count.
  ThreadGuard guard;
  for (const std::size_t threads : {1, 2, 8}) {
    set_default_threads(threads);
    const nn::Tensor logits = net.forward(batch);
    if (!bit_identical(observed.data(), logits.data())) {
      return ContractResult::fail("conv network logits differ at " +
                                  std::to_string(threads) + " threads");
    }
  }
  return ContractResult::ok();
}

}  // namespace

void set_injected_bug(InjectedBug bug) { g_injected_bug = bug; }
InjectedBug injected_bug() { return g_injected_bug; }

const std::vector<Contract>& contract_registry() {
  static const std::vector<Contract> registry = {
      {"config_valid",
       "generated configurations pass EngineConfig::validate()",
       check_config_valid},
      {"codec_roundtrip",
       "spike codec round-trips values within one clock slot, "
       "monotonically", check_codec_roundtrip},
      {"ode_ramp",
       "closed-form GD ramp matches an adaptive Cash-Karp integration of "
       "the same RC node", check_ode_ramp},
      {"ode_cog",
       "closed-form COG charging matches an adaptive Cash-Karp "
       "integration of the computation-stage node", check_ode_cog},
      {"fast_vs_tile",
       "FastMvm agrees with the faithful per-cell tile to float "
       "exactness", check_fast_vs_tile},
      {"fast_batch_vs_single",
       "FastMvm::mvm_times_batch is bit-identical per sample to "
       "mvm_times and to S1 then the voltage stage over each sample's "
       "driven rows (none on an all-silent sample), and over the whole "
       "batch to S1 then the voltage stage over the rows driven in any "
       "sample",
       check_fast_batch},
      {"perm_columns",
       "permuting crossbar columns permutes output spike times "
       "bit-for-bit", check_perm_columns},
      {"weight_scale_monotone",
       "scaling all conductances up never makes any output spike "
       "earlier", check_weight_scale_monotone},
      {"zero_input_bias",
       "an all-zero input yields exactly the bias, regardless of "
       "weights or faults", check_zero_input_bias},
      {"analog_vs_digital",
       "clean-path analog MVM stays inside the fidelity-model error "
       "bound vs the digital reference", check_analog_vs_digital},
      {"matrix_batch_vs_single",
       "ProgrammedMatrix forward_batch, encode + forward_voltages_batch and "
       "forward_probed are bit-identical to forward", check_matrix_batch},
      {"threads_identical",
       "network logits are bit-identical at 1, 2 and 8 threads",
       check_threads_identical},
      {"off_flags_identical",
       "disabled reliability/introspection sub-knobs cannot affect "
       "logits", check_off_flags_identical},
      {"perf_accounting_identity",
       "telemetry (spans and kernel work) on vs off leaves logits "
       "bit-identical",
       check_perf_accounting_identity},
      {"serving_identity",
       "the serving path (pool + scheduler) reproduces direct engine "
       "logits bit-for-bit and replays identically at any thread count",
       check_serving_identity},
      {"simd_equivalence",
       "SIMD kernels and matrix outputs (through column recovery) are "
       "bit-identical to the scalar reference under the linear model and "
       "otherwise within the derived exp/log ULP bounds, and never flip a "
       "clear argmax",
       check_simd_equivalence},
      {"serving_trace_identity",
       "attaching an event journal leaves every response bit-identical "
       "and the journal passes the conservation audit",
       check_serving_trace_identity},
      {"sparse_dense_identity",
       "event-driven execution is bit-identical to the dense reference "
       "on every logit, at any thread count",
       check_sparse_dense_identity},
      {"conv_lowering_identity",
       "a conv step's output equals a row-by-row gather_conv_patch + "
       "forward_batch replay of its input bit for bit, and conv network "
       "logits are bit-identical at 1, 2 and 8 threads",
       check_conv_lowering_identity},
  };
  return registry;
}

const Contract* find_contract(const std::string& name) {
  for (const Contract& c : contract_registry()) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

}  // namespace resipe::verify
