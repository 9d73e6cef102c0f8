#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::size_t cpu_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

bool bit_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void SpanLog::write_chrome_trace(std::ostream& os) const {
  // One tid per lane, in order of first use; timestamps in microseconds
  // from the first span.
  std::map<std::string, std::size_t> lanes;
  double origin = spans_.empty() ? 0.0 : spans_.front().t0;
  for (const Span& s : spans_) origin = std::min(origin, s.t0);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    const std::size_t tid =
        lanes.emplace(s.lane, lanes.size() + 1).first->second;
    os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"cat\":\"" << s.lane << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << tid << ",\"ts\":" << (s.t0 - origin) * 1e6
       << ",\"dur\":" << (s.t1 - s.t0) * 1e6 << "}";
    first = false;
  }
  for (const auto& [lane, tid] : lanes) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << lane << "\"}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
