// Roofline micro-bench: runs the annotated hot kernels with telemetry
// (spans and work) on, calibrates the machine ceilings and reports each
// kernel's achieved GFLOP/s / GB/s / arithmetic intensity against the
// roofline.  The BENCH_JSON figures feed the continuous regression
// tracker (tools/collect_bench.py --history + tools/bench_diff.py).
#include <cctype>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_report.hpp"
#include "resipe/circuits/params.hpp"
#include "resipe/circuits/transient.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/crossbar/crossbar.hpp"
#include "resipe/crossbar/ir_drop.hpp"
#include "resipe/device/reram.hpp"
#include "resipe/perf/roofline.hpp"
#include "resipe/perf/work_model.hpp"
#include "resipe/resipe/fast_mvm.hpp"
#include "resipe/resipe/spike_code.hpp"
#include "resipe/resipe/tile.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace {

std::string figure_key(const std::string& kernel, const char* suffix) {
  std::string key = kernel;
  for (char& ch : key) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return key + "_" + suffix;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resipe;
  bench::BenchReport report("roofline", argc, argv);

  telemetry::set_enabled(true);

  const circuits::CircuitParams params =
      circuits::CircuitParams::paper_defaults();
  const device::ReramSpec spec = device::ReramSpec::nn_mapping();
  constexpr std::size_t kRows = 128;
  constexpr std::size_t kCols = 64;
  constexpr std::size_t kReps = 200;
  constexpr std::size_t kBatch = 32;

  Rng rng(0xBEEF);
  std::vector<double> g(kRows * kCols);
  for (double& v : g) v = rng.uniform(spec.g_min(), spec.g_max());

  // FastMvm single + batch over encoded random inputs.
  const resipe_core::FastMvm mvm(params, kRows, kCols, g);
  const resipe_core::SpikeCodec codec(params);
  std::vector<double> t_in(kBatch * kRows);
  for (double& t : t_in) {
    t = codec.encode(rng.uniform(0.0, 1.0)).arrival_time;
  }
  std::vector<double> t_out(kRows > 0 ? kCols : 0);
  for (std::size_t i = 0; i < kReps; ++i) {
    mvm.mvm_times({t_in.data(), kRows}, t_out);
  }
  std::vector<double> t_out_batch(kBatch * kCols);
  resipe_core::FastMvm::BatchScratch scratch;
  for (std::size_t i = 0; i < kReps / 8; ++i) {
    mvm.mvm_times_batch(t_in, kBatch, t_out_batch, scratch);
  }

  // Faithful tile path (per-cell model) at a smaller shape.
  resipe_core::ResipeTile tile(params, 32, 16, spec);
  std::vector<double> g_tile(32 * 16);
  for (double& v : g_tile) v = rng.uniform(spec.g_min(), spec.g_max());
  tile.program(g_tile, rng);
  std::vector<circuits::Spike> spikes(32);
  for (auto& s : spikes) s = codec.encode(rng.uniform(0.0, 1.0));
  for (std::size_t i = 0; i < kReps / 4; ++i) (void)tile.execute(spikes);

  // IR-drop solve over the tile's crossbar.
  crossbar::WireModel wires;
  wires.r_wordline_segment = 0.5;
  wires.r_bitline_segment = 0.5;
  std::vector<double> v_wl(32, 0.1);
  for (std::size_t i = 0; i < kReps / 4; ++i) {
    (void)crossbar::drives_with_ir_drop(tile.crossbar(), v_wl, wires);
  }

  // Transient RK4 reference MAC.
  std::vector<double> g_col(spikes.size());
  for (std::size_t i = 0; i < g_col.size(); ++i) g_col[i] = g_tile[i];
  for (std::size_t i = 0; i < 8; ++i) {
    (void)circuits::transient_mac(params, g_col, spikes, 256);
  }

  const perf::MachineProfile machine = perf::calibrate_machine(40.0);
  const perf::RooflineReport roofline =
      perf::build_roofline_report(telemetry::CallProfile::this_thread(),
                                  machine);
  std::cout << roofline.render_ascii() << "\n";
  // The work model books the same flop counts on either path (SIMD
  // changes how fast the flops run, not how many the kernel owes), so
  // achieved-GFLOP/s deltas across this line are real rate changes.
  std::cout << "simd: isa " << simd::active_isa() << ", march "
            << simd::march_flags() << "\n";

  report.add("peak_gflops", machine.peak_gflops);
  report.add("peak_gbs", machine.peak_gbs);
  report.add("ridge_flop_per_byte", machine.ridge());
  for (const perf::KernelRates& k : roofline.kernels) {
    // Intensity is a shape property (stable across machines); rates
    // move with the machine, so the regression gate keys on *_gflops.
    report.add(figure_key(k.name, "intensity"), k.intensity);
    if (k.timed) {
      report.add(figure_key(k.name, "gflops"), k.gflops);
      report.add(figure_key(k.name, "gbs"), k.gbs);
    }
  }
  return report.emit();
}
