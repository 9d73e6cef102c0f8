// Event-driven execution switch (see DESIGN.md §15).
//
// Single-spike coding makes activity explicit: a row whose input value
// is zero encodes to t = 0, holds its wordline at exactly 0 V for the
// whole slice, and adds a signed zero to every column current sum.
// With the switch on, ProgrammedMatrix's forward loop leaves out of
// each row window the rows whose wordline voltage is zero in every
// sample of the batch (FastMvm::driven_rows), while reproducing the
// dense run bit for bit (pinned by the sparse_dense_identity contract
// and the test_events battery).
#pragma once

namespace resipe::resipe_core::events {

/// Disabled by default: every row window then visits every row.
/// Enabled, logits stay bit-identical at any thread count; only the
/// work performed — and the events.* counters — changes.
struct EventConfig {
  bool enabled = false;
};

}  // namespace resipe::resipe_core::events
