#include "resipe/verify/generators.hpp"

#include <sstream>

#include "resipe/common/error.hpp"
#include "resipe/common/units.hpp"

namespace resipe::verify {

using resipe_core::EngineConfig;

std::string CaseSpec::summary() const {
  std::ostringstream os;
  os << "seed=" << descriptor.seed << " schema=" << descriptor.schema_version
     << " xbar=" << rows << "x" << cols << " tile=" << config.tile_rows
     << "x" << config.tile_cols << " map="
     << crossbar::to_string(config.mapping)
     << " quant=" << (config.quantize_spikes ? 1 : 0)
     << " model=" << (config.circuit.model == circuits::TransferModel::kExact
                          ? "exact"
                          : "linear")
     << " rgd=" << config.circuit.r_gd / units::kOhm << "k"
     << " slice=" << config.circuit.slice_length / units::ns << "ns"
     << " clk=" << config.circuit.clock_period / units::ns << "ns"
     << " levels=" << config.device.levels
     << " sigma=" << config.device.variation_sigma
     << " rel=" << (config.reliability.enabled ? 1 : 0)
     << " evt=" << (config.events.enabled ? 1 : 0)
     << " srv=[q" << serve.queue_capacity << " b" << serve.batch_max
     << " r" << serve.retry_max << "]"
     << " net=["
     << inputs;
  for (const std::size_t w : layers) os << "->" << w;
  os << "->" << classes << "] batch=" << batch;
  return os.str();
}

CaseSpec generate_case(const CaseDescriptor& descriptor) {
  RESIPE_REQUIRE(descriptor.schema_version == kSchemaVersion,
                 "unknown case schema version "
                     << descriptor.schema_version << " (this build speaks "
                     << kSchemaVersion << ")");
  Rng rng(hash_seed(descriptor.seed, descriptor.schema_version));

  CaseSpec spec;
  spec.descriptor = descriptor;

  // --- raw crossbar geometry (tile-level contracts).
  spec.rows = static_cast<std::size_t>(rng.uniform_int(1, 32));
  spec.cols = static_cast<std::size_t>(rng.uniform_int(1, 12));

  EngineConfig& cfg = spec.config;

  // --- circuit operating point.
  switch (rng.uniform_int(0, 3)) {
    case 0:
      cfg.circuit = circuits::CircuitParams::paper_defaults();
      break;
    case 1:
      cfg.circuit = circuits::CircuitParams::linear_regime();
      break;
    default:
      cfg.circuit = circuits::CircuitParams::nn_calibrated();
      break;
  }
  // Free-range GD time constant: log-uniform across two decades so the
  // saturating, calibrated and quasi-linear regimes are all covered.
  cfg.circuit.r_gd = rng.log_uniform(50.0 * units::kOhm, 10.0 * units::MOhm);
  const double slice_choices[] = {50.0, 100.0, 200.0};
  cfg.circuit.slice_length =
      slice_choices[rng.uniform_int(0, 2)] * units::ns;
  const double clock_choices[] = {0.5, 1.0, 2.0};
  cfg.circuit.clock_period =
      clock_choices[rng.uniform_int(0, 2)] * units::ns;
  cfg.circuit.comp_stage = rng.bernoulli(0.2) ? 2.0 * units::ns
                                              : 1.0 * units::ns;
  cfg.circuit.model = rng.bernoulli(0.15) ? circuits::TransferModel::kLinear
                                          : circuits::TransferModel::kExact;
  if (rng.bernoulli(0.2)) {
    cfg.circuit.comparator_offset = rng.uniform(-5.0, 5.0) * units::mV;
    cfg.circuit.comparator_delay = rng.uniform(0.0, 1.0) * units::ns;
    cfg.circuit.comparator_offset_sigma = rng.uniform(0.0, 2.0) * units::mV;
  }

  // --- device corner.
  cfg.device = rng.bernoulli(0.5) ? device::ReramSpec::nn_mapping()
                                  : device::ReramSpec::characterization();
  const int level_choices[] = {8, 16, 32, 64};
  cfg.device.levels = level_choices[rng.uniform_int(0, 3)];
  cfg.device.variation_sigma =
      rng.bernoulli(0.5) ? rng.uniform(0.0, 0.2) : 0.0;
  cfg.device.write_verify_tolerance =
      rng.bernoulli(0.5) ? rng.uniform(0.0, 0.02) : 0.01;
  cfg.device.read_noise_sigma =
      rng.bernoulli(0.15) ? rng.uniform(0.0, 0.02) : 0.0;
  cfg.device.transistor_r_on =
      rng.bernoulli(0.3) ? 0.0 : rng.log_uniform(100.0, 2.0 * units::kOhm);

  // --- tiling + mapping.
  const std::size_t tile_choices[] = {4, 8, 16, 32};
  cfg.tile_rows = tile_choices[rng.uniform_int(0, 3)];
  cfg.tile_cols = tile_choices[rng.uniform_int(0, 3)];
  switch (rng.uniform_int(0, 3)) {
    case 0:
      cfg.mapping = crossbar::SignedMapping::kComplementaryPair;
      break;
    case 1:
      cfg.mapping = crossbar::SignedMapping::kOffsetColumn;
      break;
    default:
      cfg.mapping = crossbar::SignedMapping::kDifferentialPair;
      break;
  }
  cfg.quantize_spikes = rng.bernoulli(0.8);
  cfg.calibration_headroom = rng.uniform(0.5, 0.95);
  cfg.input_scale_margin = rng.uniform(1.0, 1.5);
  cfg.program_seed = rng.next_u64();

  // --- reliability.  The sub-parameters are drawn unconditionally so
  // the *flag* (not the draw count) decides behavior — a shrinker flip
  // of `enabled` never shifts the downstream stream.
  const bool reliability_on = rng.bernoulli(0.3);
  cfg.reliability.enabled = reliability_on;
  cfg.reliability.faults.stuck_lrs_rate = rng.uniform(0.0, 0.02);
  cfg.reliability.faults.stuck_hrs_rate = rng.uniform(0.0, 0.02);
  cfg.reliability.faults.cluster_fraction =
      rng.bernoulli(0.3) ? 0.5 : 0.0;
  cfg.reliability.mitigation.enabled = rng.bernoulli(0.7);
  const std::size_t spare_choices[] = {0, 2, 4};
  cfg.reliability.mitigation.spare_cols =
      spare_choices[rng.uniform_int(0, 2)];
  cfg.reliability.fault_seed = rng.next_u64();

  // Three draws of the retired introspection knobs, discarded: they
  // keep every later draw, and so every (schema 3, seed) case, as the
  // committed corpus records it.
  (void)rng.bernoulli(0.3);
  (void)rng.uniform_int(1, 24);
  (void)rng.uniform_int(0, 8);

  if (rng.bernoulli(0.1)) {
    cfg.retention_time = rng.log_uniform(10.0, 1.0e7);
    cfg.device.drift_nu = 0.05;
  }
  cfg.model_wire_ir_drop = rng.bernoulli(0.1);

  // --- network shape.
  spec.inputs = static_cast<std::size_t>(rng.uniform_int(2, 16));
  const auto hidden = rng.uniform_int(0, 2);
  for (std::int64_t i = 0; i < hidden; ++i) {
    spec.layers.push_back(static_cast<std::size_t>(rng.uniform_int(2, 16)));
  }
  spec.classes = static_cast<std::size_t>(rng.uniform_int(2, 8));
  spec.batch = static_cast<std::size_t>(rng.uniform_int(1, 4));

  // --- serving layer (schema v2).  Appended after every v1 draw so the
  // earlier stream is bit-identical across versions.  Ranges mirror
  // ServeConfig::validate()'s accepted domain exactly.
  serve::ServeConfig& srv = spec.serve;
  srv.queue_capacity = static_cast<std::size_t>(rng.uniform_int(1, 64));
  srv.batch_max = static_cast<std::size_t>(rng.uniform_int(1, 8));
  srv.batch_window = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 1.0e-3);
  srv.default_deadline = rng.log_uniform(1.0e-4, 1.0);
  srv.retry_max = static_cast<int>(rng.uniform_int(0, 4));
  srv.backoff_base = rng.log_uniform(1.0e-6, 1.0e-3);
  srv.backoff_multiplier = rng.uniform(1.0, 3.0);
  srv.backoff_max = srv.backoff_base * rng.uniform(1.0, 100.0);
  srv.backoff_jitter = rng.uniform(0.0, 1.0);
  srv.health.canary_period = rng.log_uniform(1.0e-4, 1.0e-2);
  srv.health.canary_images = static_cast<std::size_t>(rng.uniform_int(1, 8));
  srv.health.max_canary_mismatch = rng.uniform(0.0, 1.0);
  srv.health.logit_rmse_limit = rng.uniform(0.0, 2.0);
  srv.health.quarantine_after =
      static_cast<std::size_t>(rng.uniform_int(1, 3));
  srv.health.readmit_after = static_cast<std::size_t>(rng.uniform_int(1, 4));
  srv.seed = rng.next_u64();

  // --- event-driven execution (schema v3).  Appended after every v2
  // draw so the earlier stream is bit-identical across versions.  The
  // flag is drawn 50/50 so half the corpus exercises the sparse path
  // in every contract, not just sparse_dense_identity.
  cfg.events.enabled = rng.bernoulli(0.5);

  // The generator's output contract: everything it emits is valid.
  cfg.validate();
  srv.validate();
  return spec;
}

}  // namespace resipe::verify
