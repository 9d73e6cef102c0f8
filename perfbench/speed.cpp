#include "speed.hpp"

#include <cmath>
#include <thread>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBufferDoubles = std::size_t{1} << 15;  // 256 KiB
constexpr int kPasses = 128;

// A fixed mix of transcendental arithmetic and updates over a buffer the
// size of a core's L2, like the simulator's working set per call.  Of
// the buffer sizes tried (16 KiB, 256 KiB, 2 MiB) this one tracked
// CNN-1 call times best over a three-minute log.
double probe_kernel(std::vector<double>& buf) {
  double acc = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      acc += std::exp(-buf[i] * 1e-3 * static_cast<double>(i & 7));
      buf[i] = buf[i] * 0.999 + 1e-3;
    }
  }
  return acc;
}

}  // namespace

SpeedProbe::SpeedProbe(std::size_t threads)
    : threads_(threads == 0 ? 1 : threads),
      buffers_(threads_, std::vector<double>(kBufferDoubles, 1.0)) {}

double SpeedProbe::run() {
  std::vector<double> sums(threads_, 0.0);
  const double t0 = now_s();
  {
    std::vector<std::jthread> workers;
    for (std::size_t i = 1; i < threads_; ++i) {
      workers.emplace_back([&, i] { sums[i] = probe_kernel(buffers_[i]); });
    }
    sums[0] = probe_kernel(buffers_[0]);
  }  // joins
  const double dt = now_s() - t0;
  // Keep the sums observable so the kernel cannot be elided.
  volatile double sink = 0.0;
  for (double s : sums) sink = sink + s;
  times_.push_back(dt);
  last_ = now_s();
  return dt;
}

double SpeedProbe::maybe() {
  return now_s() - last_ < kInterval ? 0.0 : run();
}

double SpeedProbe::factor() const {
  return times_.empty() ? 1.0 : kProbeReferenceS / median(times_);
}

}  // namespace perfbench
