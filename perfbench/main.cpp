// resipe_perfbench — host wall-clock benchmark of whole lowered networks
// and the serving path.
//
//   resipe_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--report-dir DIR]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  A traced
// run also writes its report and spans to DIR.  Exit status: 0 when every
// output was correct, 1 on a failed check or error, 2 on bad usage.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "resipe/telemetry/metrics.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: resipe_perfbench --workload "
               "cifar_vgg16|mnist_events|mnist_serve --seed N --seconds S "
               "--trace 0|1 [--report-dir DIR]\n",
               msg);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& v) {
  char* end = nullptr;
  errno = 0;
  v = std::strtoull(s, &end, 10);
  return errno == 0 && end != s && *end == '\0' && s[0] != '-';
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

std::string result_json(const Outcome& out) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (out.correct() ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i ? ", " : "") << "\"" << json_escape(m.name)
       << "\": {\"value\": " << v << ", \"unit\": \"" << json_escape(m.unit)
       << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, opt.seed)) return usage("--seed takes an unsigned integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 3600.0) {
        return usage("--seconds takes a number in (0, 3600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage("--trace takes 0 or 1");
      opt.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--report-dir") {
      opt.report_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");

  const auto nets = perfbench::network_workloads();
  const bool is_net =
      std::find(nets.begin(), nets.end(), opt.workload) != nets.end();
  if (!is_net && opt.workload != "mnist_serve")
    return usage(("unknown workload '" + opt.workload + "'").c_str());

  // Measure the default build as shipped: ambient telemetry off whatever
  // the environment says.
  resipe::telemetry::set_enabled(false);

  Outcome out;
  try {
    out = is_net ? perfbench::run_network_workload(opt)
                 : perfbench::run_serve_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  for (const std::string& e : out.errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  if (opt.trace) {
    std::fputs(out.report.c_str(), stderr);
    if (!opt.report_dir.empty()) {
      const std::string base = opt.report_dir + "/" + opt.workload + "-seed" +
                               std::to_string(opt.seed);
      std::ofstream(base + ".txt") << out.report;
      std::ofstream(base + "-spans.json") << out.report_spans;
      std::fprintf(stderr, "report: %s.txt, spans: %s-spans.json\n",
                   base.c_str(), base.c_str());
    }
  }
  std::cout << result_json(out) << std::endl;
  return out.correct() ? 0 : 1;
}
