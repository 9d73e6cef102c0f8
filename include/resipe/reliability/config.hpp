// Reliability configuration: fault injection + mitigation knobs for the
// network-level engine (EngineConfig::reliability).
//
// With `enabled = false` (the default) the engine takes the exact
// pre-existing programming path — no fault maps are drawn, no RNG
// stream is consumed, outputs are bit-identical to a build without the
// subsystem.  With `enabled = true` the engine injects hard faults,
// models read disturb and endurance, and (when `mitigation.enabled`)
// detects and repairs them; see DESIGN.md "Reliability".
#pragma once

#include <cstddef>
#include <cstdint>

#include "resipe/reliability/fault_mapper.hpp"
#include "resipe/reliability/fault_model.hpp"

namespace resipe::reliability {

/// Mitigation policy (detection + repair).  All stages are individually
/// switchable so the ablation bench can isolate their contributions.
struct MitigationConfig {
  /// Master switch: false = inject faults but run blind (no detection,
  /// no remapping, no compensation) — the honest "do nothing" baseline.
  bool enabled = true;
  /// Spare physical columns provisioned per tile block.  Faulty data
  /// columns are remapped onto clean spares (rounded down to whole
  /// column groups for paired mappings).
  std::size_t spare_cols = 4;
  /// Fault/importance-aware column placement: when spares run out,
  /// swap high-magnitude weight columns away from defective slots so
  /// the damage lands on the least important weights.
  bool remap_columns = true;
  /// Differential compensation: with a (G+, G-) pair, a single stuck
  /// cell can often be cancelled exactly by re-targeting its healthy
  /// partner to preserve G+ - G-.
  bool compensate_pairs = true;
  /// Bounded write-verify retry budget (explicit give-up status).
  int write_verify_retries = 5;
  /// A compensated/unrepaired residual conductance error above this
  /// fraction of the conductance window flags the column as degraded.
  double degrade_threshold = 0.10;
};

/// Top-level reliability configuration.
struct ReliabilityConfig {
  /// Master switch; false keeps the engine bit-identical to a
  /// reliability-free build.
  bool enabled = false;

  /// Hard-fault generator (stuck-at rates + clustering).
  FaultModelConfig faults;

  /// Read disturb: relative conductance loss per MVM read, applied at
  /// program time for the expected deployment read count.
  double read_disturb_rate = 0.0;
  double expected_mvms = 0.0;

  /// Endurance model fed into the write-verify budget (0 = off).
  double endurance_cycles = 0.0;
  double wear_cycles = 0.0;

  /// Detection model (statistical miss / false-alarm rates).
  FaultMapperConfig mapper;

  /// Mitigation policy.
  MitigationConfig mitigation;

  /// Seed of the fault-realization stream.  Deliberately separate from
  /// EngineConfig::program_seed so toggling mitigation (which changes
  /// how many programming draws happen) never changes *which* cells
  /// are defective — the OFF/ON comparison sees identical silicon.
  std::uint64_t fault_seed = 0xFA117u;

  void validate() const;
};

}  // namespace resipe::reliability
