// Reliability configuration: fault injection + mitigation for the
// network-level engine (EngineConfig::reliability).
//
// With `enabled = false` (the default) the engine takes the exact
// pre-existing programming path — no fault maps are drawn, no RNG
// stream is consumed, outputs are bit-identical to a build without the
// subsystem.  With `enabled = true` the engine pins stuck-at cells,
// programs through the bounded write-verify loop and (when
// `mitigation.enabled`) repairs the defects; see DESIGN.md
// "Reliability".
#pragma once

#include <cstddef>
#include <cstdint>

#include "resipe/reliability/fault_model.hpp"

namespace resipe::reliability {

/// Write pulses the fault path's write-verify loop issues per cell
/// before it gives up and keeps its best landing.
inline constexpr int kWriteVerifyAttempts = 5;
/// A pair-compensation residual above this fraction of the conductance
/// window (G_max - G_min) flags the pair's output as degraded.
inline constexpr double kDegradeWindow = 0.10;
/// Cells per spatial defect cluster.
inline constexpr std::size_t kClusterCells = 4;

/// Mitigation policy.  Enabled, it remaps faulty columns onto clean
/// spares, swaps the faulty columns left over with the least important
/// clean ones (importance = conductance mass above G_min), and with a
/// (G+, G-) pair mapping re-targets the healthy partner of a single
/// stuck cell to preserve G+ - G-.
struct MitigationConfig {
  /// false = inject faults but run blind (no repair, no degraded-output
  /// flags) — the honest "do nothing" baseline.
  bool enabled = true;
  /// Spare physical columns provisioned per tile block (rounded down to
  /// whole column groups for paired mappings).
  std::size_t spare_cols = 4;
};

/// Top-level reliability configuration.
struct ReliabilityConfig {
  /// Master switch; false keeps the engine bit-identical to a
  /// reliability-free build.
  bool enabled = false;

  /// Hard-fault generator (stuck-at rates + clustering).
  FaultModelConfig faults;

  /// Mitigation policy.
  MitigationConfig mitigation;

  /// Seed of the fault-realization stream.  Deliberately separate from
  /// EngineConfig::program_seed so toggling mitigation (which changes
  /// how many programming draws happen) never changes *which* cells
  /// are defective — the OFF/ON comparison sees identical silicon.
  std::uint64_t fault_seed = 0xFA117u;

  void validate() const { faults.validate(); }
};

}  // namespace resipe::reliability
