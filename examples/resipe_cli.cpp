// resipe_cli — command-line front end to the simulator.
//
// Subcommands:
//   characterize [--rows N] [--samples N] [--csv FILE]
//       Fig. 5-style input/output characterization.
//   compare
//       Table II design comparison.
//   chip (--net mlp1|mlp2|cnn1|cnn2|cnn3|cnn4)
//       Chip-level mapping report for one benchmark network.
//   mvm --rows N --cols N [--sigma S] [--seed K]
//       One random single-spiking MVM: prints inputs, spike times and
//       decoded outputs.
//   yield [--bound R]
//       Monte-Carlo chip yield across the Fig. 7 sigma sweep.
//   reliability [--net NAME] [--rates R1,R2,...] [--spares N]
//               [--cluster F] [--seeds N]
//       Stuck-at defect-rate sweep: accuracy with the mitigation
//       pipeline OFF vs ON on identical fault realizations.
//   inspect [--net mlp1|mlp2|cnn1] [--images N] [--train N]
//           [--epochs N] [--sigma S] [--seed K] [--out FILE]
//       Trains a small benchmark on synthetic digits, lowers it, runs
//       every introspection probe over the test batch and prints the
//       per-layer numerical-health dashboard; --out writes the
//       machine-readable JSON report.
//   profile [--net mlp1|mlp2|cnn1] [--images N] [--train N] [--epochs N]
//           [--reps N] [--seed K] [--calib-ms MS] [--out FILE]
//           [--folded FILE]
//       Profiles repeated inference with telemetry spans and kernel
//       work and prints the roofline report (GFLOP/s, GB/s, intensity,
//       compute- vs memory-bound) plus the work-annotated call tree;
//       --out writes the JSON report, --folded writes flamegraph-
//       compatible folded stacks.  With --trace, cumulative-work
//       counter tracks are added to the Chrome trace.
//   quickstart
//       End-to-end mini-workload touching every subsystem; pairs well
//       with --trace / --metrics.
//
// Global options (any position):
//   --trace FILE     record a Chrome trace (chrome://tracing, Perfetto)
//   --metrics FILE   dump the metric registry (.csv extension -> CSV,
//                    anything else -> JSON)
//   --threads N      worker threads for parallel sweeps (beats the
//                    RESIPE_THREADS environment variable; 1 = serial;
//                    default = RESIPE_THREADS, else hardware threads).
//                    Results are bit-identical for every value.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "resipe/common/csv.hpp"
#include "resipe/common/flags.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/common/table.hpp"
#include "resipe/crossbar/mapping.hpp"
#include "resipe/eval/characterization.hpp"
#include "resipe/eval/comparison.hpp"
#include "resipe/eval/fault_tolerance.hpp"
#include "resipe/eval/yield.hpp"
#include "resipe/introspect/inspect.hpp"
#include "resipe/nn/zoo.hpp"
#include "resipe/perf/perf_counters.hpp"
#include "resipe/perf/roofline.hpp"
#include "resipe/resipe/chip.hpp"
#include "resipe/resipe/network.hpp"
#include "resipe/resipe/spike_code.hpp"
#include "resipe/resipe/tile.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace {

using namespace resipe;

/// Every network a --net flag names.  A command's table entry lists the
/// ones it takes as the flag's value name.
constexpr std::pair<std::string_view, nn::BenchmarkNet> kNets[] = {
    {"mlp1", nn::BenchmarkNet::kMlp1}, {"mlp2", nn::BenchmarkNet::kMlp2},
    {"cnn1", nn::BenchmarkNet::kCnn1}, {"cnn2", nn::BenchmarkNet::kCnn2},
    {"cnn3", nn::BenchmarkNet::kCnn3}, {"cnn4", nn::BenchmarkNet::kCnn4}};
constexpr std::string_view kAllNets = "mlp1|mlp2|cnn1|cnn2|cnn3|cnn4";
constexpr std::string_view kInspectNets = "mlp1|mlp2|cnn1";

/// The network --net names (`fallback` when absent), which must be one
/// of those the command's table entry lists ("mlp1|mlp2|cnn1"); any other
/// name is a FlagError.
nn::BenchmarkNet net_flag(const Flags& flags, std::string_view fallback) {
  const std::string tag = flags.text("--net", std::string(fallback));
  const std::string_view listed = flags.value_name("--net");
  for (std::string_view rest = listed; !rest.empty();) {
    const std::size_t bar = std::min(rest.find('|'), rest.size());
    if (rest.substr(0, bar) == tag) {
      for (const auto& [name, net] : kNets) {
        if (name == tag) return net;
      }
    }
    rest.remove_prefix(std::min(bar + 1, rest.size()));
  }
  throw FlagError("bad value '" + tag + "' for '--net' (takes " +
                  std::string(listed) + ")");
}

int cmd_characterize(const Flags& flags) {
  eval::CharacterizationConfig cfg;
  cfg.rows = flags.number<std::size_t>("--rows", 32);
  cfg.samples = flags.number<std::size_t>("--samples", 100);
  const auto result = eval::characterize(cfg);
  std::printf("characterized %zu samples on a %zu-row column\n",
              result.random_samples.size(), cfg.rows);
  std::printf("curve1(80 ps*S) = %s, curve2 = %s, curve3 = %s\n",
              format_si(result.curve1(80e-12), "s").c_str(),
              format_si(result.curve2(80e-12), "s").c_str(),
              format_si(result.curve3(80e-12), "s").c_str());
  const std::string csv_path = flags.text("--csv");
  if (!csv_path.empty()) {
    CsvWriter csv;
    std::vector<double> x, y;
    for (const auto& p : result.random_samples) {
      x.push_back(p.strength);
      y.push_back(p.t_out);
    }
    csv.add_column("strength_sS", x);
    csv.add_column("t_out_s", y);
    csv.write_file(csv_path);
    std::printf("wrote %s\n", csv_path.c_str());
  }
  return 0;
}

int cmd_compare(const Flags&) {
  std::cout << eval::compare_designs().render();
  return 0;
}

int cmd_chip(const Flags& flags) {
  const nn::BenchmarkNet net = net_flag(flags, "mlp2");
  Rng rng(1);
  nn::Sequential model = nn::build_benchmark(net, rng);
  const std::vector<std::size_t> shape =
      nn::uses_object_dataset(net) ? std::vector<std::size_t>{3, 32, 32}
                                   : std::vector<std::size_t>{1, 28, 28};
  std::printf("== %s ==\n", nn::benchmark_name(net).c_str());
  std::cout << resipe_core::map_network(model, shape).render();
  return 0;
}

int cmd_mvm(const Flags& flags) {
  const auto rows = flags.number<std::size_t>("--rows", 8);
  const auto cols = flags.number<std::size_t>("--cols", 4);
  const double sigma = flags.number("--sigma", 0.0);
  const auto seed = flags.number<std::uint64_t>("--seed", 7);
  if (rows == 0 || cols == 0) {
    std::fprintf(stderr, "--rows/--cols must be positive\n");
    return 2;
  }

  circuits::CircuitParams params;
  device::ReramSpec spec = device::ReramSpec::nn_mapping();
  spec.variation_sigma = sigma;
  resipe_core::ResipeTile tile(params, rows, cols, spec);
  Rng rng(seed);
  std::vector<double> g(rows * cols);
  for (double& v : g) v = rng.uniform(spec.g_min(), spec.g_max());
  tile.program(g, rng);

  const resipe_core::SpikeCodec codec(params);
  std::vector<circuits::Spike> in(rows);
  TextTable t_in({"wordline", "value", "spike arrival"});
  for (std::size_t i = 0; i < rows; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    in[i] = codec.encode(x);
    t_in.add_row({std::to_string(i), format_fixed(x, 3),
                  format_si(in[i].arrival_time, "s")});
  }
  std::puts(t_in.str().c_str());

  const auto out = tile.execute(in);
  TextTable t_out({"bitline", "spike arrival", "decoded value"});
  for (std::size_t c = 0; c < cols; ++c) {
    t_out.add_row({std::to_string(c),
                   out[c].valid()
                       ? format_si(out[c].arrival_time, "s")
                       : "(silent)",
                   format_fixed(codec.decode(out[c]), 4)});
  }
  std::puts(t_out.str().c_str());
  return 0;
}

int cmd_yield(const Flags& flags) {
  eval::YieldConfig cfg;
  cfg.rmse_bound = flags.number("--bound", 0.05);
  const auto points = eval::mvm_yield(resipe_core::EngineConfig{}, cfg);
  std::cout << eval::render_yield(points, cfg.rmse_bound);
  return 0;
}

int cmd_reliability(const Flags& flags) {
  eval::FaultToleranceConfig cfg;
  cfg.net = net_flag(flags, "mlp1");
  const std::string rates = flags.text("--rates");
  if (!rates.empty()) {
    cfg.defect_rates.clear();
    std::size_t pos = 0;
    while (pos < rates.size()) {
      std::size_t next = rates.find(',', pos);
      if (next == std::string::npos) next = rates.size();
      const double r =
          parse_flag<double>("--rates", rates.substr(pos, next - pos));
      if (r < 0.0 || r > 1.0) {
        std::fprintf(stderr, "defect rate out of [0, 1]: %f\n", r);
        return 2;
      }
      cfg.defect_rates.push_back(r);
      pos = next + 1;
    }
    if (cfg.defect_rates.empty()) {
      std::fprintf(stderr, "--rates parsed to an empty list\n");
      return 2;
    }
  }
  cfg.spare_cols = flags.number<std::size_t>("--spares", 4);
  cfg.cluster_fraction = flags.number("--cluster", 0.25);
  cfg.mc_seeds = flags.number<std::size_t>("--seeds", 2);
  if (cfg.mc_seeds == 0) {
    std::fprintf(stderr, "--seeds must be positive\n");
    return 2;
  }
  cfg.verbose = true;
  const auto result = eval::evaluate_fault_tolerance(cfg);
  std::cout << "\n" << eval::render_fault_tolerance(result);
  return 0;
}

// Trains a benchmark network on synthetic data, lowers it onto the
// engine, runs every probe over it, and prints / writes the per-layer
// inspection report (spike health, fidelity-drift attribution, energy
// ledger, provenance).
int cmd_inspect(const Flags& flags) {
  const nn::BenchmarkNet net = net_flag(flags, "mlp1");
  const auto train_n = flags.number<std::size_t>("--train", 256);
  const auto test_n = flags.number<std::size_t>("--images", 64);
  const auto epochs = flags.number<std::size_t>("--epochs", 3);
  const double sigma = flags.number("--sigma", 0.1);
  const auto seed = flags.number<std::uint64_t>("--seed", 42);
  const std::string out = flags.text("--out");
  if (train_n == 0 || test_n == 0) {
    std::fprintf(stderr, "--train/--images must be positive\n");
    return 2;
  }

  auto [model, test, calib, fit] = nn::train_benchmark(
      net,
      {.train_samples = train_n, .test_samples = test_n, .epochs = epochs});
  std::printf("trained %s: train acc %.3f, test acc %.3f\n",
              model.name().c_str(), fit->train_accuracy, fit->test_accuracy);

  resipe_core::EngineConfig ec;
  ec.program_seed = seed;
  ec.device.variation_sigma = sigma;
  const resipe_core::ResipeNetwork hw(model, ec, calib);

  const introspect::InspectionReport report =
      introspect::inspect(hw, test.images, test.labels);
  std::fputs(report.render_ascii().c_str(), stdout);
  if (!out.empty()) {
    report.write_json_file(out);
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

// Trains a small benchmark on synthetic digits, lowers it onto the
// engine and profiles repeated inference with telemetry spans and
// kernel work, hardware perf counters (when the kernel allows) and a
// one-shot machine calibration, then prints the roofline report and the
// work-annotated call tree, folded across every pool worker.  Verifies
// on the way that switching telemetry on leaves the logits
// bit-identical.
int cmd_profile(const Flags& flags) {
  const nn::BenchmarkNet net = net_flag(flags, "mlp1");
  const auto train_n = flags.number<std::size_t>("--train", 128);
  const auto test_n = flags.number<std::size_t>("--images", 32);
  const auto epochs = flags.number<std::size_t>("--epochs", 2);
  const auto reps = flags.number<std::size_t>("--reps", 3);
  const auto seed = flags.number<std::uint64_t>("--seed", 42);
  const double calib_ms = flags.number("--calib-ms", 60.0);
  const std::string out = flags.text("--out");
  const std::string folded = flags.text("--folded");
  if (train_n == 0 || test_n == 0 || reps == 0) {
    std::fprintf(stderr, "--train/--images/--reps must be positive\n");
    return 2;
  }
#if defined(RESIPE_TELEMETRY_DISABLED)
  // The call tree, the roofline and the folded stacks are all built
  // from spans this build compiled out: refuse instead of reporting an
  // empty profile.
  std::fprintf(stderr,
               "error: profile needs telemetry spans, which this build "
               "compiled out (configure with -DRESIPE_TELEMETRY=ON)\n");
  return 2;
#endif

  // Enable telemetry before the network is lowered: SpikeCodec caches
  // the telemetry flag at construction, and its codec work rides the
  // same cold path as its counters.
  telemetry::set_enabled(true);
  telemetry::CallProfile& profile = telemetry::CallProfile::this_thread();

  auto [model, test, calib, fit] = nn::train_benchmark(
      net,
      {.train_samples = train_n, .test_samples = test_n, .epochs = epochs});
  resipe_core::EngineConfig ec;
  ec.program_seed = seed;
  const resipe_core::ResipeNetwork hw(model, ec, calib);

  // Bit-identity sanity: telemetry on must not perturb the logits.
  telemetry::set_enabled(false);
  const nn::Tensor logits_off = hw.forward(test.images);
  telemetry::set_enabled(true);
  const nn::Tensor logits_on = hw.forward(test.images);
  const std::span<const double> off = logits_off.data();
  const std::span<const double> on = logits_on.data();
  const bool identical =
      off.size() == on.size() &&
      std::memcmp(off.data(), on.data(), off.size() * sizeof(double)) == 0;
  std::printf("telemetry on/off logits: %s\n",
              identical ? "bit-identical" : "MISMATCH");

  // Measured region: repeated inference over the test batch with the
  // call tree and counters reset/armed.
  profile.reset();
  auto& trace = telemetry::TraceSession::instance();
  perf::PerfCounterGroup counters;
  counters.start();
  for (std::size_t i = 0; i < reps; ++i) {
    (void)hw.forward(test.images);
    if (trace.active()) {
      // Counter tracks: cumulative booked work after each rep.
      double gflops = 0.0, gbytes = 0.0;
      for (const auto& k : perf::build_roofline_report(profile, {}).kernels) {
        gflops += k.flops * 1e-9;
        gbytes += k.bytes * 1e-9;
      }
      trace.counter("perf.accounted_gflop", gflops);
      trace.counter("perf.accounted_gbyte", gbytes);
    }
  }
  counters.stop();

  std::printf("calibrating machine ceilings (%.0f ms/bench)...\n",
              calib_ms);
  const perf::MachineProfile machine = perf::calibrate_machine(calib_ms);
  const perf::RooflineReport report =
      perf::build_roofline_report(profile, machine, counters.read());
  std::fputs(report.render_ascii().c_str(), stdout);
  std::puts("\n== work-annotated call tree ==");
  std::fputs(profile.render().c_str(), stdout);
  if (!out.empty()) {
    report.write_json_file(out);
    std::printf("wrote %s\n", out.c_str());
  }
  if (!folded.empty()) {
    perf::write_folded_stacks_file(folded, profile);
    std::printf("wrote %s\n", folded.c_str());
  }
  return identical ? 0 : 1;
}

// End-to-end mini-workload: weight mapping (crossbar), cell programming
// (device), a single-spiking MVM (resipe_core) and a small
// characterization sweep (eval).  Mirrors examples/quickstart.cpp so
// `resipe_cli --trace out.json quickstart` yields spans from every
// subsystem.
int cmd_quickstart(const Flags&) {
  std::puts("=== quickstart workload ===\n");
  const circuits::CircuitParams params =
      circuits::CircuitParams::paper_defaults();
  const device::ReramSpec spec = device::ReramSpec::nn_mapping();

  const std::vector<double> weights = {0.8, -0.2, 0.6, 0.4,
                                       -0.3, 0.9, -0.7, 0.1};
  const auto mapped = crossbar::map_weights(
      weights, 4, 2, spec, crossbar::SignedMapping::kDifferentialPair);
  resipe_core::ResipeTile tile(params, mapped.rows, mapped.cols, spec);
  Rng rng(2020);
  tile.program(mapped.g_targets, rng);

  const resipe_core::SpikeCodec codec(params);
  const std::vector<double> values = {0.8, 0.6, 0.3, 0.1};
  std::vector<circuits::Spike> inputs;
  for (double v : values) inputs.push_back(codec.encode(v));
  const auto outputs = tile.execute(inputs);
  TextTable t({"bitline", "spike arrival", "decoded"});
  for (std::size_t c = 0; c < outputs.size(); ++c) {
    t.add_row({std::to_string(c),
               outputs[c].valid()
                   ? format_si(outputs[c].arrival_time, "s")
                   : "(silent)",
               format_fixed(codec.decode(outputs[c]), 4)});
  }
  std::puts(t.str().c_str());

  eval::CharacterizationConfig cfg;
  cfg.rows = 8;
  cfg.samples = 16;
  const auto result = eval::characterize(cfg);
  std::printf("characterized %zu samples; curve1(80 ps*S) = %s\n",
              result.random_samples.size(),
              format_si(result.curve1(80e-12), "s").c_str());
  return 0;
}

/// Every command with its flags and its handler.  main reads the
/// global flags and the command's through one Flags, so a typo'd
/// command or a flag of another command exits 2 with usage instead of
/// running with defaults.
struct Command {
  const char* name;
  std::vector<FlagSpec> flags;
  int (*run)(const Flags&);
};

constexpr FlagSpec kGlobalFlags[] = {
    {"--trace", "FILE"}, {"--metrics", "FILE"}, {"--threads", "N"}};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"characterize",
       {{"--rows", "N"}, {"--samples", "N"}, {"--csv", "FILE"}},
       cmd_characterize},
      {"compare", {}, cmd_compare},
      {"chip", {{"--net", kAllNets}}, cmd_chip},
      {"mvm",
       {{"--rows", "N"}, {"--cols", "N"}, {"--sigma", "S"}, {"--seed", "K"}},
       cmd_mvm},
      {"yield", {{"--bound", "R"}}, cmd_yield},
      {"reliability",
       {{"--net", kAllNets}, {"--rates", "R1,R2,..."},
        {"--spares", "N"}, {"--cluster", "F"}, {"--seeds", "N"}},
       cmd_reliability},
      {"inspect",
       {{"--net", kInspectNets}, {"--images", "N"}, {"--train", "N"},
        {"--epochs", "N"}, {"--sigma", "S"}, {"--seed", "K"},
        {"--out", "FILE"}},
       cmd_inspect},
      {"profile",
       {{"--net", kInspectNets}, {"--images", "N"}, {"--train", "N"},
        {"--epochs", "N"}, {"--reps", "N"}, {"--seed", "K"},
        {"--calib-ms", "MS"}, {"--out", "FILE"}, {"--folded", "FILE"}},
       cmd_profile},
      {"quickstart", {}, cmd_quickstart},
  };
  return table;
}

// Only ever printed on a usage *error*, so it goes to stderr: stdout
// stays clean for the command's actual report.  Each command's line
// lists its flags from the table, wrapped at 76 columns.
void usage() {
  std::string text = "usage: resipe_cli " + flag_synopsis(kGlobalFlags) +
                     " <command> [options]\n";
  for (const Command& c : commands()) {
    std::string line = std::string("  ") + c.name;
    const std::size_t indent = line.size();
    for (const FlagSpec& f : c.flags) {
      const std::string item = flag_synopsis({&f, 1});
      if (line.size() + 1 + item.size() > 76) {
        text += line + "\n";
        line.assign(indent, ' ');
      }
      (line += ' ') += item;
    }
    text += line + "\n";
  }
  text +=
      "global options:\n"
      "  --trace FILE    write a Chrome trace-event JSON (Perfetto)\n"
      "  --metrics FILE  dump metrics (.csv -> CSV, else JSON)\n"
      "  --threads N     worker threads for parallel sweeps (overrides\n"
      "                  RESIPE_THREADS; 1 = serial; results are\n"
      "                  bit-identical for every N)\n";
  std::fputs(text.c_str(), stderr);
}

}  // namespace

int main(int argc, char** argv) {
  // The command is the first token that is neither a global flag nor a
  // global flag's value; the other tokens are read as flags.
  std::vector<char*> args(argv + 1, argv + argc);
  const auto is_global = [](std::string_view token) {
    return std::any_of(std::begin(kGlobalFlags), std::end(kGlobalFlags),
                       [&](const FlagSpec& f) { return f.name == token; });
  };
  std::size_t at = 0;
  while (at < args.size() && is_global(args[at])) at += 2;
  const Command* command = nullptr;
  std::vector<FlagSpec> spec(std::begin(kGlobalFlags), std::end(kGlobalFlags));
  std::string scope;
  if (at < args.size()) {
    for (const Command& c : commands()) {
      if (std::strcmp(args[at], c.name) == 0) command = &c;
    }
    if (command == nullptr) {
      std::fprintf(stderr, "error: unknown command '%s'\n", args[at]);
      usage();
      return 2;
    }
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(at));
    spec.insert(spec.end(), command->flags.begin(), command->flags.end());
    scope = "command '" + std::string(command->name) + "'";
  }

  std::string trace_path;
  std::string metrics_path;
  int rc = 2;
  try {
    const Flags flags(args, spec, scope);
    if (command == nullptr) throw FlagError("missing command");
    if (flags.has("--threads")) {
      const int n = flags.number("--threads", 0);
      if (n < 1) {
        std::fprintf(stderr, "--threads must be >= 1\n");
        return 2;
      }
      // Process-wide default: every sweep config leaves its `threads`
      // knob at 0 ("use the default"), so this one call covers all
      // subcommands and outranks the RESIPE_THREADS environment
      // variable.
      resipe::set_default_threads(static_cast<std::size_t>(n));
    }
    trace_path = flags.text("--trace");
    metrics_path = flags.text("--metrics");
    if (!trace_path.empty()) telemetry::TraceSession::instance().start();
    if (!metrics_path.empty()) telemetry::set_enabled(true);
    rc = command->run(flags);
  } catch (const FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  try {
    if (!trace_path.empty()) {
      auto& session = telemetry::TraceSession::instance();
      session.stop();
      session.write_chrome_trace_file(trace_path);
      std::printf("wrote trace with %zu events to %s\n",
                  session.snapshot().size(), trace_path.c_str());
      if (session.dropped() > 0) {
        std::printf("  (%zu events dropped at capacity)\n",
                    session.dropped());
      }
    }
    if (!metrics_path.empty()) {
      if (metrics_path.size() >= 4 &&
          metrics_path.rfind(".csv") == metrics_path.size() - 4) {
        telemetry::write_metrics_csv_file(metrics_path);
      } else {
        telemetry::write_metrics_json_file(metrics_path);
      }
      std::printf("wrote metrics to %s\n", metrics_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "telemetry export error: %s\n", e.what());
    return 1;
  }
  return rc;
}
