// Google-benchmark micro-kernels for the simulator hot paths:
// spike codec, FastMvm, the faithful tile model, programming, and the
// baseline functional models.
#include <benchmark/benchmark.h>

#include "resipe/baselines/level_based.hpp"
#include "resipe/baselines/rate_coding.hpp"
#include "resipe/crossbar/crossbar.hpp"
#include "resipe/resipe/fast_mvm.hpp"
#include "resipe/resipe/spike_code.hpp"
#include "resipe/resipe/tile.hpp"

namespace {

using namespace resipe;

void BM_SpikeCodecEncode(benchmark::State& state) {
  const resipe_core::SpikeCodec codec(circuits::CircuitParams{});
  double x = 0.0;
  for (auto _ : state) {
    x += 1e-4;
    if (x > 1.0) x = 0.0;
    benchmark::DoNotOptimize(codec.encode(x));
  }
}
BENCHMARK(BM_SpikeCodecEncode);

void BM_FastMvm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const circuits::CircuitParams params;
  const auto xbar = crossbar::make_representative(
      n, n, device::ReramSpec::nn_mapping(), 7);
  const resipe_core::FastMvm mvm(params, xbar);
  std::vector<double> t_in(n), t_out(n);
  for (std::size_t i = 0; i < n; ++i)
    t_in[i] = 10e-9 + 80e-9 * static_cast<double>(i) /
                          static_cast<double>(n);
  for (auto _ : state) {
    mvm.mvm_times(t_in, t_out);
    benchmark::DoNotOptimize(t_out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_FastMvm)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

// Batched MVM over one reusable scratch.  Per-iteration allocations are
// zero by construction (BatchScratch only grows on first use and the
// row-major conductance layout is baked into the FastMvm): if this
// bench ever shows per-batch mallocs under a profiler, mvm_times_batch
// has regressed.  Throughput here should be >= the per-sample BM_FastMvm
// figure at equal n — the batch path feeds each conductance row load to
// several samples.
void BM_FastMvmBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatch = 32;
  const circuits::CircuitParams params;
  const auto xbar = crossbar::make_representative(
      n, n, device::ReramSpec::nn_mapping(), 7);
  const resipe_core::FastMvm mvm(params, xbar);
  std::vector<double> t_in(kBatch * n), t_out(kBatch * n);
  for (std::size_t i = 0; i < t_in.size(); ++i)
    t_in[i] = 10e-9 + 80e-9 * static_cast<double>(i % n) /
                          static_cast<double>(n);
  resipe_core::FastMvm::BatchScratch scratch;
  for (auto _ : state) {
    mvm.mvm_times_batch(t_in, kBatch, t_out, scratch);
    benchmark::DoNotOptimize(t_out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch * n * n));
}
BENCHMARK(BM_FastMvmBatch)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_TileExecute(benchmark::State& state) {
  const circuits::CircuitParams params;
  resipe_core::ResipeTile tile(params, 32, 32,
                               device::ReramSpec::nn_mapping());
  Rng rng(7);
  std::vector<double> g(32 * 32, 10e-6);
  tile.program(g, rng);
  const resipe_core::SpikeCodec codec(params);
  std::vector<circuits::Spike> in(32);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = codec.encode(static_cast<double>(i) / 31.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tile.execute(in));
  }
}
BENCHMARK(BM_TileExecute);

void BM_CrossbarProgram(benchmark::State& state) {
  const auto spec = device::ReramSpec::nn_mapping();
  std::vector<double> g(32 * 32, 10e-6);
  Rng rng(7);
  for (auto _ : state) {
    crossbar::Crossbar xbar(32, 32, spec);
    xbar.program(g, rng);
    benchmark::DoNotOptimize(xbar.column_total_g(0));
  }
}
BENCHMARK(BM_CrossbarProgram);

void BM_LevelFunctionalMvm(benchmark::State& state) {
  const baselines::LevelBasedDesign design;
  std::vector<double> x(32);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<double>(i) / 31.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(design.functional_mvm(x));
  }
}
BENCHMARK(BM_LevelFunctionalMvm);

void BM_RateFunctionalMvm(benchmark::State& state) {
  const baselines::RateCodingDesign design;
  std::vector<double> x(32);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<double>(i) / 31.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(design.functional_mvm(x));
  }
}
BENCHMARK(BM_RateFunctionalMvm);

}  // namespace

BENCHMARK_MAIN();
