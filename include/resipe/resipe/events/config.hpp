// Event-driven sparse execution knobs (see events/event_queue.hpp and
// DESIGN.md §15).
//
// Single-spike coding makes activity explicit: a row whose input value
// is zero encodes to t = 0, holds its wordline at exactly 0 V for the
// whole slice, and contributes exactly +0.0 to every column current
// sum.  The event engine exploits that — inputs become timestamped
// events, a column group (tile) is woken only when events fall inside
// its row window, and silent rows are skipped inside woken groups —
// while reproducing the dense reference bit for bit (pinned by the
// sparse_dense_identity contract and the test_events battery).
#pragma once

namespace resipe::resipe_core::events {

/// Master switch for the event strategy of ProgrammedMatrix's forward
/// core.  Disabled by default: every block then runs the dense
/// strategy.  Enabled, logits stay bit-identical at any thread count;
/// only the work performed — and the events/groups_woken perf
/// accounting — changes.
struct EventConfig {
  bool enabled = false;

  /// Engine-level invariant check (called from EngineConfig::validate).
  /// A bool-only config has no invalid states today; the hook exists so
  /// future knobs (wake hysteresis, group granularity) validate in the
  /// same place as every other subsystem.
  void validate() const {}
};

}  // namespace resipe::resipe_core::events
