// Scalar-vs-SIMD kernel comparison bench.
//
// Times the FastMvm batch kernel, the spike-codec batch kernels and a
// whole ProgrammedMatrix::forward_batch twice over identical inputs —
// once on the vector path, once under simd::ForceScalarGuard — and
// reports achieved GFLOP/s for both plus the speedup ratio.  The
// matrix row adds the glue around the kernel (encode, per-column
// recovery, decode) at a layer shape where it is not amortized away:
// CNN-3's Conv2d(32->32), 288 inputs x 32 outputs on 32x32 tiles.
// The *_gflops figures feed the bench_diff regression gate (per-ISA
// baselines: the report is stamped with simd_isa, so a scalar build
// starts its own history); the *_speedup ratios are directionless
// context.
//
// On a scalar build both passes run the same code, the speedups sit at
// ~1.0 and the bench degenerates to a plain kernel-throughput tracker.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_report.hpp"
#include "resipe/circuits/params.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/common/simd.hpp"
#include "resipe/device/reram.hpp"
#include "resipe/resipe/fast_mvm.hpp"
#include "resipe/resipe/network.hpp"
#include "resipe/resipe/spike_code.hpp"

namespace {

using namespace resipe;

/// Runs `body` repeatedly until ~`budget_s` of wall time is spent
/// (after one untimed warmup call) and returns seconds per call.
template <typename Body>
double time_per_call(double budget_s, Body&& body) {
  using clock = std::chrono::steady_clock;
  body();  // warmup: scratch growth, page faults, branch history
  std::size_t calls = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++calls;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < budget_s);
  return elapsed / static_cast<double>(calls);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("simd_kernels", argc, argv);

  const circuits::CircuitParams params;
  const device::ReramSpec spec = device::ReramSpec::nn_mapping();
  constexpr std::size_t kRows = 128;
  constexpr std::size_t kCols = 128;
  constexpr std::size_t kBatch = 32;
  constexpr double kBudget = 0.25;  // seconds per timed variant

  Rng rng(0x51D);
  std::vector<double> g(kRows * kCols);
  for (double& v : g) v = rng.uniform(spec.g_min(), spec.g_max());
  const resipe_core::FastMvm mvm(params, kRows, kCols, std::move(g));
  const resipe_core::SpikeCodec codec(params);

  std::vector<double> x(kBatch * kRows);
  for (double& v : x) v = rng.uniform(0.0, 1.0);
  std::vector<double> t_in(x.size());
  codec.encode_times(x, t_in);
  std::vector<double> t_out(kBatch * kCols);
  resipe_core::FastMvm::BatchScratch scratch;

  // 2 flops per MAC; the transcendental wordline/recovery work is
  // per-row/per-column and amortizes out at this shape, matching the
  // convention of perf/work_model.
  const double mvm_flops = 2.0 * kBatch * kRows * kCols;
  const double codec_flops = 4.0 * x.size();

  // CNN-3 Conv2d(32->32) lowered: 3x3x32 = 288 rows, 32 outputs on
  // 64 differential columns, 9 x 2 tiles of 32x32.
  constexpr std::size_t kConvIn = 288;
  constexpr std::size_t kConvOut = 32;
  const resipe_core::EngineConfig engine;
  std::vector<double> w(kConvIn * kConvOut);
  for (double& v : w) v = rng.uniform(-0.5, 0.5);
  std::vector<double> b(kConvOut);
  for (double& v : b) v = rng.uniform(-0.1, 0.1);
  resipe_core::ProgrammedMatrix matrix(engine, w, b, kConvIn, kConvOut, rng);
  std::vector<double> patches(kBatch * kConvIn);
  for (double& v : patches) v = rng.uniform(0.0, 1.0);
  matrix.calibrate_alpha(patches, kBatch);
  std::vector<double> y(kBatch * kConvOut);
  resipe_core::ProgrammedMatrix::BatchWorkspace ws;
  // 2 flops per crossbar MAC: every input row drives both columns of
  // each differential pair.
  const double matrix_flops = 2.0 * kBatch * kConvIn * 2.0 * kConvOut;

  const auto mvm_call = [&] {
    mvm.mvm_times_batch(t_in, kBatch, t_out, scratch);
  };
  const auto matrix_call = [&] {
    matrix.forward_batch(patches, kBatch, y, ws);
  };
  const auto encode_call = [&] { codec.encode_times(x, t_in); };
  const auto decode_call = [&] { codec.decode_values(t_in, x); };

  struct Row {
    const char* key;
    double flops;
    double simd_s;
    double scalar_s;
  };
  Row rows[] = {
      {"fast_mvm_batch", mvm_flops, time_per_call(kBudget, mvm_call), 0.0},
      {"codec_encode", codec_flops, time_per_call(kBudget, encode_call),
       0.0},
      {"codec_decode", codec_flops, time_per_call(kBudget, decode_call),
       0.0},
      {"matrix_forward_batch", matrix_flops,
       time_per_call(kBudget, matrix_call), 0.0},
  };
  {
    simd::ForceScalarGuard guard;
    rows[0].scalar_s = time_per_call(kBudget, mvm_call);
    rows[1].scalar_s = time_per_call(kBudget, encode_call);
    rows[2].scalar_s = time_per_call(kBudget, decode_call);
    rows[3].scalar_s = time_per_call(kBudget, matrix_call);
  }

  std::printf("simd kernel comparison (isa %s, march %s)\n",
              simd::active_isa(), simd::march_flags());
  std::printf("%-20s %12s %12s %8s\n", "kernel", "simd GFLOP/s",
              "scalar GF/s", "speedup");
  for (const Row& row : rows) {
    const double simd_gflops = row.flops / row.simd_s * 1e-9;
    const double scalar_gflops = row.flops / row.scalar_s * 1e-9;
    const double speedup = row.scalar_s / row.simd_s;
    std::printf("%-20s %12.3f %12.3f %7.2fx\n", row.key, simd_gflops,
                scalar_gflops, speedup);
    report.add(std::string(row.key) + "_simd_gflops", simd_gflops);
    report.add(std::string(row.key) + "_scalar_gflops", scalar_gflops);
    report.add(std::string(row.key) + "_speedup", speedup);
  }
  return report.emit();
}
