// Shared plumbing of the host-time benchmark: clocks, order statistics,
// process figures, the result record every workload fills in, and the
// in-memory span log of the traced run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Host wall-clock seconds (steady_clock).
double now_s();

/// Quantile q in [0, 1] with linear interpolation between order
/// statistics; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// CPUs this process may run on (what `nproc` prints).
std::size_t cpu_threads();

/// Bitwise equality of two double arrays (NaN payloads and signed zeros
/// included): the benchmark's definition of a correct output.
bool bit_equal(std::span<const double> a, std::span<const double> b);

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string report_dir;  ///< where the traced run writes its report
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of one workload produced.
struct Outcome {
  std::uint64_t attempted = 0;  ///< timed calls (or requests) checked
  std::uint64_t failed = 0;     ///< of those, wrong or missing outputs
  std::vector<std::string> errors;  ///< every failed check, in order
  std::vector<Metric> metrics;
  std::string report;        ///< traced-run report (empty when untraced)
  std::string report_spans;  ///< traced-run spans, Chrome trace JSON

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check that is not tied to a timed call.
  void fail(std::string what) {
    ++failed;
    errors.push_back(std::move(what));
  }
  bool correct() const { return failed == 0 && errors.empty(); }
};

/// Spans recorded by the traced run, kept in memory and written out as
/// a Chrome trace when the run ends.  Each span names a layer boundary
/// the benchmark crossed; `lane` groups spans of one kind.
class SpanLog {
 public:
  void record(std::string name, std::string lane, double t0, double t1) {
    spans_.push_back({std::move(name), std::move(lane), t0, t1});
  }
  void write_chrome_trace(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    std::string lane;
    double t0 = 0.0;
    double t1 = 0.0;
  };
  std::vector<Span> spans_;
};

}  // namespace perfbench
