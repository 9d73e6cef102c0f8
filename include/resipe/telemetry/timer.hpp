// RAII scoped timers that nest into a per-thread call-tree profile.
//
// A ScopedTimer costs nothing when telemetry is disabled (one relaxed
// atomic load in the constructor).  When enabled it reads the steady
// clock twice, aggregates {count, total time, analytic work} into the
// calling thread's call tree keyed by the nesting path, and — if a
// TraceSession is active — records a Chrome-trace complete event.
//
// Pool workers record into their own trees; at pool join each worker's
// tree folds into the node the caller had open when the parallel region
// began, so the caller's tree holds every thread's spans.  A folded
// node's total is summed thread time and can exceed its parent's wall
// time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "resipe/telemetry/metrics.hpp"

namespace resipe::telemetry {

/// Steady-clock timestamp in nanoseconds (arbitrary epoch).
std::uint64_t now_ns() noexcept;

/// Analytic cost of one kernel call: double-precision arithmetic
/// operations and bytes of algorithmic memory traffic (the models live
/// in resipe/perf/work_model.hpp).
struct WorkCost {
  double flops = 0.0;
  double bytes = 0.0;
};

/// One node of the aggregated call tree.  `name` points at the string
/// literal passed to ScopedTimer and must outlive the profile.
struct ProfileNode {
  const char* name = nullptr;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  ///< 0 for a work-only node
  double flops = 0.0;
  double bytes = 0.0;
  std::vector<std::unique_ptr<ProfileNode>> children;

  /// Finds or creates the child with this name.
  ProfileNode& child(const char* child_name);
};

/// Per-thread aggregated call-tree profile.
class CallProfile {
 public:
  /// The calling thread's profile (created on first use).
  static CallProfile& this_thread();

  const ProfileNode& root() const { return root_; }
  void reset();

  /// Indented text rendering: name, call count, total and mean time,
  /// plus achieved GFLOP/s, GB/s and FLOP/byte on nodes with work.
  std::string render() const;

  // Internal: nesting state used by ScopedTimer.
  ProfileNode* current() { return current_; }
  void set_current(ProfileNode* node) { current_ = node; }

 private:
  CallProfile() { current_ = &root_; }

  ProfileNode root_;
  ProfileNode* current_;
};

/// Books one call's work into the `name` child of the calling thread's
/// open span, without timing it (for ns-scale call sites whose time the
/// enclosing span already carries).
void book_work(const char* name, const WorkCost& cost);

/// RAII span.  Construct with a string literal; the pointer is retained.
/// The two-argument form also books one call's work, `cost()`, which is
/// only evaluated when telemetry is on.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name) noexcept : name_(name) {
    if (enabled()) enter({});
  }
  template <class CostFn>
  ScopedTimer(const char* name, CostFn&& cost) noexcept : name_(name) {
    if (enabled()) enter(cost());
  }
  ~ScopedTimer() {
    if (active_) leave();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  void enter(const WorkCost& cost) noexcept;
  void leave();

  const char* name_;
  std::uint64_t start_ns_ = 0;
  ProfileNode* node_ = nullptr;
  ProfileNode* parent_ = nullptr;
  bool active_ = false;
};

}  // namespace resipe::telemetry
