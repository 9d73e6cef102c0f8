// Roofline report assembly, JSON/ASCII rendering and folded-stack
// export.
#include "resipe/perf/roofline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "resipe/common/file.hpp"
#include "resipe/common/table.hpp"
#include "resipe/telemetry/trace.hpp"

namespace resipe::perf {

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

using telemetry::json_string;

// Sums count, time and work per span name over every node that carries
// work, wherever it sits in the tree.
void sum_by_name(const telemetry::ProfileNode& node,
                 std::map<std::string, telemetry::ProfileNode>& out) {
  for (const auto& c : node.children) {
    if (c->flops != 0.0 || c->bytes != 0.0) {
      telemetry::ProfileNode& k = out[c->name];
      k.count += c->count;
      k.total_ns += c->total_ns;
      k.flops += c->flops;
      k.bytes += c->bytes;
    }
    sum_by_name(*c, out);
  }
}

}  // namespace

RooflineReport build_roofline_report(const telemetry::CallProfile& profile,
                                     const MachineProfile& machine,
                                     const PerfCounts& counters) {
  RooflineReport report;
  report.machine = machine;
  report.counters = counters;
  std::map<std::string, telemetry::ProfileNode> by_name;
  sum_by_name(profile.root(), by_name);
  for (const auto& [name, k] : by_name) {
    KernelRates r;
    r.name = name;
    r.calls = k.count;
    r.flops = k.flops;
    r.bytes = k.bytes;
    r.seconds = static_cast<double>(k.total_ns) * 1e-9;
    r.timed = k.total_ns > 0;
    r.intensity = k.bytes > 0.0 ? k.flops / k.bytes : 0.0;
    if (r.timed) {
      r.gflops = k.flops / static_cast<double>(k.total_ns);
      r.gbs = k.bytes / static_cast<double>(k.total_ns);
    }
    r.memory_bound =
        machine.ridge() > 0.0 && r.intensity < machine.ridge();
    if (machine.peak_gflops > 0.0 && machine.peak_gbs > 0.0) {
      r.attainable_gflops =
          std::min(machine.peak_gflops, r.intensity * machine.peak_gbs);
      if (r.timed && r.attainable_gflops > 0.0) {
        r.efficiency = r.gflops / r.attainable_gflops;
      }
    }
    report.kernels.push_back(std::move(r));
  }
  return report;
}

std::string RooflineReport::render_ascii() const {
  std::ostringstream os;
  os << "== roofline ==\n";
  os << "machine: " << machine.cpu_model << " (" << machine.cores
     << " hw threads), peak " << format_fixed(machine.peak_gflops)
     << " GFLOP/s, " << format_fixed(machine.peak_gbs) << " GB/s, ridge "
     << format_fixed(machine.ridge()) << " FLOP/byte\n";
  if (counters.available) {
    os << "counters: IPC " << format_fixed(counters.ipc()) << ", "
       << format_fixed(counters.ghz()) << " GHz, cache-miss rate "
       << format_fixed(counters.cache_miss_rate()) << ", branch misses "
       << number(counters.branch_misses) << "\n";
  } else if (!counters.detail.empty()) {
    os << "counters: unavailable (" << counters.detail
       << "); wall-clock only\n";
  } else {
    os << "counters: not collected\n";
  }

  TextTable table({"kernel", "calls", "time", "GFLOP/s", "GB/s",
                   "FLOP/byte", "bound", "roof%"});
  for (const KernelRates& k : kernels) {
    table.add_row(
        {k.name, std::to_string(k.calls),
         k.timed ? format_si(k.seconds, "s") : "(untimed)",
         k.timed ? format_fixed(k.gflops) : "-",
         k.timed ? format_fixed(k.gbs) : "-",
         format_fixed(k.intensity), k.memory_bound ? "memory" : "compute",
         k.timed && k.attainable_gflops > 0.0
             ? format_percent(k.efficiency)
             : "-"});
  }
  os << table.str();

  // Log-log scatter: x = arithmetic intensity, y = GFLOP/s; '=' draws
  // the machine roof (bandwidth slope up to the ridge, flat after).
  const double ridge = machine.ridge();
  std::vector<const KernelRates*> plotted;
  for (const KernelRates& k : kernels) {
    if (k.timed && k.gflops > 0.0 && k.intensity > 0.0) {
      plotted.push_back(&k);
    }
  }
  if (!plotted.empty() && machine.peak_gflops > 0.0 && ridge > 0.0) {
    constexpr int kW = 64;
    constexpr int kH = 16;
    double x_min = ridge, x_max = ridge;
    double y_max = machine.peak_gflops;
    for (const KernelRates* k : plotted) {
      x_min = std::min(x_min, k->intensity);
      x_max = std::max(x_max, k->intensity);
      y_max = std::max(y_max, k->gflops);
    }
    x_min /= 2.0;
    x_max *= 2.0;
    const double y_min = y_max / 1e6;
    const double lx0 = std::log10(x_min), lx1 = std::log10(x_max);
    const double ly0 = std::log10(y_min), ly1 = std::log10(y_max * 2.0);
    std::vector<std::string> grid(kH, std::string(kW, ' '));
    auto col_of = [&](double x) {
      return std::clamp(static_cast<int>((std::log10(x) - lx0) /
                                         (lx1 - lx0) * (kW - 1)),
                        0, kW - 1);
    };
    auto row_of = [&](double y) {
      const int r = static_cast<int>((std::log10(std::max(y, y_min)) -
                                      ly0) /
                                     (ly1 - ly0) * (kH - 1));
      return kH - 1 - std::clamp(r, 0, kH - 1);
    };
    for (int cidx = 0; cidx < kW; ++cidx) {
      const double x =
          std::pow(10.0, lx0 + (lx1 - lx0) * cidx / (kW - 1));
      const double roof = std::min(machine.peak_gflops,
                                   x * machine.peak_gbs);
      grid[static_cast<std::size_t>(row_of(roof))]
          [static_cast<std::size_t>(cidx)] = '=';
    }
    char marker = 'A';
    os << "\n  roofline chart (x: FLOP/byte, y: GFLOP/s, log-log; "
          "'=' machine roof)\n";
    std::ostringstream legend;
    for (const KernelRates* k : plotted) {
      grid[static_cast<std::size_t>(row_of(k->gflops))]
          [static_cast<std::size_t>(col_of(k->intensity))] = marker;
      legend << "    " << marker << " = " << k->name << "\n";
      if (marker < 'Z') ++marker;
    }
    for (const std::string& line : grid) os << "  |" << line << "\n";
    os << "  +" << std::string(kW, '-') << "\n";
    os << legend.str();
  }
  return os.str();
}

void RooflineReport::write_json(std::ostream& os) const {
  os << "{\"machine\":{\"cpu_model\":";
  json_string(os, machine.cpu_model);
  os << ",\"cores\":" << machine.cores << ",\"fingerprint\":";
  json_string(os, machine.fingerprint);
  os << ",\"fingerprint_hash\":";
  json_string(os, machine.fingerprint_hash);
  os << ",\"peak_gflops\":" << number(machine.peak_gflops)
     << ",\"peak_gbs\":" << number(machine.peak_gbs)
     << ",\"ridge_flop_per_byte\":" << number(machine.ridge()) << "}";
  os << ",\"counters\":{\"available\":"
     << (counters.available ? "true" : "false") << ",\"detail\":";
  json_string(os, counters.detail);
  os << ",\"wall_ns\":" << number(counters.wall_ns)
     << ",\"cycles\":" << number(counters.cycles)
     << ",\"instructions\":" << number(counters.instructions)
     << ",\"ipc\":" << number(counters.ipc())
     << ",\"cache_references\":" << number(counters.cache_references)
     << ",\"cache_misses\":" << number(counters.cache_misses)
     << ",\"cache_miss_rate\":" << number(counters.cache_miss_rate())
     << ",\"branch_misses\":" << number(counters.branch_misses) << "}";
  os << ",\"kernels\":[";
  bool first = true;
  for (const KernelRates& k : kernels) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":";
    json_string(os, k.name);
    os << ",\"calls\":" << k.calls << ",\"seconds\":" << number(k.seconds)
       << ",\"flops\":" << number(k.flops)
       << ",\"bytes\":" << number(k.bytes)
       << ",\"timed\":" << (k.timed ? "true" : "false")
       << ",\"gflops\":" << number(k.gflops)
       << ",\"gbs\":" << number(k.gbs)
       << ",\"intensity_flop_per_byte\":" << number(k.intensity)
       << ",\"bound\":\"" << (k.memory_bound ? "memory" : "compute")
       << "\",\"attainable_gflops\":" << number(k.attainable_gflops)
       << ",\"roofline_efficiency\":" << number(k.efficiency) << "}";
  }
  os << "]}\n";
}

void RooflineReport::write_json_file(const std::string& path) const {
  write_file(path, [this](std::ostream& os) { write_json(os); });
}

// --- folded stacks -----------------------------------------------------

namespace {

void fold_node(const telemetry::ProfileNode& node, std::string prefix,
               std::ostringstream& os) {
  prefix += node.name;
  std::uint64_t child_ns = 0;
  for (const auto& c : node.children) child_ns += c->total_ns;
  // Self time in integer microseconds; flamegraph.pl wants integral
  // sample counts, and ns-scale spans would round to 0 and vanish, so
  // clamp any nonzero self time to at least 1.
  const std::uint64_t self_ns =
      node.total_ns > child_ns ? node.total_ns - child_ns : 0;
  if (self_ns > 0) {
    os << prefix << " " << std::max<std::uint64_t>(self_ns / 1000, 1)
       << "\n";
  }
  for (const auto& c : node.children) fold_node(*c, prefix + ";", os);
}

}  // namespace

std::string folded_stacks(const telemetry::CallProfile& profile) {
  std::ostringstream os;
  for (const auto& c : profile.root().children) fold_node(*c, "", os);
  return os.str();
}

void write_folded_stacks_file(const std::string& path,
                              const telemetry::CallProfile& profile) {
  write_file(path,
             [&profile](std::ostream& os) { os << folded_stacks(profile); });
}

}  // namespace resipe::perf
