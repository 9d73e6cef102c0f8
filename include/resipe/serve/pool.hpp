// Health-checked chip pool: N independently-programmed replicas of one
// lowered network, with canary-based quarantine and readmission.
//
// Each pool member is a full ResipeNetwork lowered from the same
// trained model but with its own programming / fault seed — N distinct
// pieces of silicon serving one model, the way a production fleet
// replicates a checkpoint across accelerators.  A golden reference
// (same model, same circuit operating point, reliability disabled) is
// lowered once; periodic probe rounds push a fixed canary batch through
// every replica and compare against the golden logits.  A replica whose
// canaries drift past the health thresholds for `quarantine_after`
// consecutive rounds is quarantined — the scheduler stops routing to it
// and its load fails over to the healthy replicas — and re-admitted
// after `readmit_after` consecutive clean rounds.
//
// The state machine is pure and deterministic: probe verdicts depend
// only on the programmed silicon (itself a pure function of the seeds),
// so a serving trace replays bit-identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "resipe/nn/model.hpp"
#include "resipe/nn/tensor.hpp"
#include "resipe/resipe/network.hpp"
#include "resipe/serve/config.hpp"

namespace resipe::serve {

/// Serving availability of one pool member.
enum class ChipState {
  kHealthy,      ///< in the dispatch rotation
  kQuarantined,  ///< failed health checks; excluded until it recovers
};

const char* to_string(ChipState s);

/// Health bookkeeping of one pool member.
struct ChipStatus {
  ChipState state = ChipState::kHealthy;
  std::size_t consecutive_failed = 0;  ///< failing probe rounds in a row
  std::size_t consecutive_clean = 0;   ///< clean probe rounds in a row
  std::size_t probes = 0;              ///< probe rounds run
  std::size_t quarantines = 0;         ///< transitions into quarantine
  std::size_t readmissions = 0;        ///< transitions back to healthy
  std::size_t batches_served = 0;
  std::size_t requests_served = 0;
  double last_canary_mismatch = 0.0;   ///< argmax disagreement fraction
  double last_canary_rmse = 0.0;       ///< logit RMS deviation vs golden
};

/// A pool of replica chips serving one model.
class ChipPool {
 public:
  /// Lowers one replica per entry of `replica_configs` (each config is
  /// validated; vary program_seed / reliability.fault_seed per entry to
  /// model distinct silicon).  `calibration` calibrates every lowering
  /// and supplies the canary images.  The golden reference is lowered
  /// from `replica_configs[0]` with reliability disabled.
  ChipPool(nn::Sequential& model, const nn::Tensor& calibration,
           const std::vector<resipe_core::EngineConfig>& replica_configs,
           const ServeConfig& config);

  std::size_t size() const { return chips_.size(); }
  std::size_t healthy_count() const;
  const ChipStatus& status(std::size_t chip) const;

  /// Flattened per-sample input width the pool expects.
  std::size_t input_size() const { return input_size_; }
  /// Shape of one sample (calibration shape without the batch axis).
  const std::vector<std::size_t>& input_shape() const { return input_shape_; }

  /// Runs `batch` ([n, input_size] row-major) through the replica and
  /// returns its logits.  Deterministic and bit-identical at any thread
  /// count (the engine's batched forward path).
  nn::Tensor infer(std::size_t chip, const nn::Tensor& batch);

  /// Untrusted logical outputs of the replica's final layer roll-up
  /// (the PR 2 graceful-degradation flags); 0 for clean silicon.
  std::size_t degraded_outputs(std::size_t chip) const;

  /// Virtual service latency of one batch of `n` on this replica: the
  /// chip-level pipeline fill latency plus (n - 1) initiation
  /// intervals (see resipe_core::map_network).
  double service_time(std::size_t chip, std::size_t n) const;

  /// Probes every replica (quarantined ones included — that is how they
  /// recover) against the golden canary logits and steps the health
  /// state machine.  Returns the number of state transitions.
  std::size_t run_probe_round();

  /// Operator override: immediately quarantines a chip (manual drain).
  /// Recovery still requires `readmit_after` clean probe rounds.
  void force_quarantine(std::size_t chip);

  /// Direct access to a replica's network (tests, accuracy studies).
  const resipe_core::ResipeNetwork& network(std::size_t chip) const;

  const ServeConfig& config() const { return config_; }

 private:
  struct Chip {
    std::unique_ptr<resipe_core::ResipeNetwork> network;
    ChipStatus status;
    double fill_latency = 0.0;        // s, one input through the pipeline
    double initiation_interval = 0.0; // s, between pipelined inputs
  };

  /// One probe: canary forward + compare; updates mismatch/rmse fields
  /// and returns true when the probe is clean.
  bool probe(Chip& chip);

  ServeConfig config_;
  std::vector<std::size_t> input_shape_;
  std::size_t input_size_ = 0;
  std::vector<Chip> chips_;
  std::unique_ptr<resipe_core::ResipeNetwork> golden_;
  nn::Tensor canaries_;
  nn::Tensor golden_logits_;
};

}  // namespace resipe::serve
