// Inference introspection: per-layer numerical-health probes,
// accuracy-loss attribution and run provenance.
//
// inspect() re-runs a lowered ResipeNetwork over a batch with every
// probe enabled and produces a machine-readable report:
//
//   * spike-time health per matrix layer — where in the slice the
//     output comparators fire, how many columns fall silent (censored
//     above), fire in the first clock period (pinned at full scale) or
//     in the last one, and how often the input encoder clamps;
//   * dead / always-firing output neurons measured on the actual
//     analog activations;
//   * fidelity-drift attribution — each layer's deviation from the
//     ideal digital MVM decomposed into quantization (levels + clock),
//     device variation/noise, and RC-nonlinearity components by
//     re-programming the layer with effects toggled.  The three
//     components telescope: they sum exactly to the measured total;
//   * accuracy-loss attribution — the accuracy recovered when each
//     matrix layer alone runs digitally (forward_hybrid);
//   * an energy ledger rolling the per-tile-MVM energy model up per
//     layer for the probed batch;
//   * a provenance manifest (config hash, seeds, thread count, build
//     flags) so any two reports can be compared apples-to-apples.
//
// The probes live entirely outside the inference hot path: calling
// inspect() is the only switch, and a network's own forward paths
// never run them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "resipe/resipe/network.hpp"

namespace resipe::introspect {

/// Run provenance stamped into every inspection report.
struct Provenance {
  /// FNV-1a hash over a canonical dump of every EngineConfig knob;
  /// two runs with equal hashes simulated the same hardware.
  std::string engine_config_hash;
  std::uint64_t program_seed = 0;
  std::uint64_t fault_seed = 0;
  std::size_t threads = 1;
  /// False when the binary was compiled with -DRESIPE_TELEMETRY=OFF.
  bool telemetry_build = true;
  /// Runtime telemetry toggle at report time.
  bool telemetry_enabled = false;
  std::string compiler;
  std::string build_type;  ///< "release" (NDEBUG) or "debug"
  std::string timestamp;   ///< ISO-8601 UTC, stamped at collection
};

/// Stable hex config hash (see Provenance::engine_config_hash).
std::string engine_config_hash(const resipe_core::EngineConfig& config);

/// Collects the full manifest for `config` in the current process.
Provenance collect_provenance(const resipe_core::EngineConfig& config);

/// Output-neuron activity over the probed batch.
struct NeuronActivity {
  std::size_t outputs = 0;
  std::size_t dead = 0;       ///< activation never above the threshold
  std::size_t always_on = 0;  ///< activation above it on every vector
};

/// Per-layer deviation from the ideal digital MVM, decomposed by
/// re-running the layer with effect groups toggled.  Components
/// telescope — quantization + variation + nonlinearity == total by
/// construction (each is a difference of adjacent arms), so any
/// mismatch flags a bug, not a modelling choice.
struct ErrorAttribution {
  bool computed = false;
  std::size_t vectors = 0;    ///< input vectors the arms processed
  double total = 0.0;         ///< RMSE of the analog layer vs digital
  double quantization = 0.0;  ///< conductance levels + clock grid
  double variation = 0.0;     ///< programming variation, read noise,
                              ///< comparator offsets, drift, faults
  double nonlinearity = 0.0;  ///< exact-RC vs linearized transfer
};

/// Energy rolled up for one layer over the probed batch.
struct LayerEnergy {
  double per_tile_mvm = 0.0;  ///< J per tile MVM (energy model)
  double tile_mvms = 0.0;     ///< tile MVMs the batch executed
  double total = 0.0;         ///< J
};

/// Everything measured about one lowered step.
struct LayerReport {
  std::size_t step = 0;
  std::string name;  ///< layer.describe()
  bool is_matrix = false;
  bool is_conv = false;
  std::size_t tiles = 0;
  bool probed = false;
  resipe_core::ProgrammedMatrix::ProbeStats probe;
  NeuronActivity activity;
  ErrorAttribution error;
  LayerEnergy energy;
  /// Whole-network accuracy when this layer alone runs digitally;
  /// negative when labels were not supplied.
  double accuracy_if_digital = -1.0;
};

/// Machine-readable inspection report.
struct InspectionReport {
  Provenance provenance;
  std::string model_name;
  std::size_t batch_size = 0;
  double analog_accuracy = -1.0;   ///< negative = no labels supplied
  double digital_accuracy = -1.0;
  double logits_rmse = 0.0;        ///< analog vs digital logits
  double total_energy = 0.0;       ///< J over the probed batch
  std::vector<LayerReport> layers;

  /// Single-object JSON document (no external dependencies).
  std::string to_json() const;
  void write_json_file(const std::string& path) const;

  /// ASCII dashboard (common/table): per-layer health, attribution
  /// and energy tables plus the provenance footer.
  std::string render_ascii() const;
};

/// Runs `batch` through `net` with every probe.  The per-layer sample
/// sizes, the histogram bins and the activity threshold are constants
/// of inspect.cpp (listed in docs/observability.md).  `labels` enables
/// the accuracy numbers and per-layer accuracy attribution.
InspectionReport inspect(const resipe_core::ResipeNetwork& net,
                         const nn::Tensor& batch,
                         std::span<const int> labels = {});

}  // namespace resipe::introspect
