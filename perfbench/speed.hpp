// Host speed probe.
//
// Other tenants of a shared machine slow this process in phases that
// last seconds to minutes, by up to about 1.6x.  The slowdown is not
// stolen time (thread CPU time grows with it), so no clock excludes it.
// A fixed kernel compiled here, which calls nothing in the simulator and
// so cannot be moved by a change to it, runs between timed calls on as
// many threads as the workload uses.  The benchmark reports host times
// scaled by kProbeReferenceS / (median probe time of the run): the time
// the call would take on a machine where the probe takes
// kProbeReferenceS.  Over a three-minute log the spread of 10 s medians
// of CNN-1 at one thread fell from 15.5% raw to 1.9% scaled.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Probe time of the reference machine (an idle 4-vCPU Xeon virtual
/// machine).  Only scales the reported figures.
inline constexpr double kProbeReferenceS = 0.025;

class SpeedProbe {
 public:
  explicit SpeedProbe(std::size_t threads);

  /// Runs the probe and returns its wall time.
  double run();

  /// Runs the probe when kInterval has passed since the last one;
  /// returns the seconds spent (0 when it did not run).
  double maybe();

  /// kProbeReferenceS / median probe time: multiply a host time by this
  /// to get reference-machine time.
  double factor() const;

 private:
  static constexpr double kInterval = 0.25;
  std::size_t threads_;
  std::vector<std::vector<double>> buffers_;  ///< one per probe thread
  std::vector<double> times_;
  double last_ = 0.0;
};

}  // namespace perfbench
