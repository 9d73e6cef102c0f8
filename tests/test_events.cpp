// Differential battery for the event-driven execution engine.
//
// The contract under test is absolute: with EngineConfig::events
// enabled, every logit is BIT-identical to the dense reference — same
// model, same input, any thread count, either kernel path.  So almost
// every test here compares raw double bit patterns (memcmp / 0-ULP),
// not tolerances.
#include "resipe/resipe/events/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "resipe/common/error.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/common/simd.hpp"
#include "resipe/common/units.hpp"
#include "resipe/introspect/inspect.hpp"
#include "resipe/nn/zoo.hpp"
#include "resipe/perf/roofline.hpp"
#include "resipe/resipe/events/config.hpp"
#include "resipe/resipe/fast_mvm.hpp"
#include "resipe/resipe/network.hpp"
#include "resipe/telemetry/metrics.hpp"
#include "testing/approx.hpp"

namespace resipe::resipe_core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool bit_identical(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bit_identical(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) && bit_identical(a.data(), b.data());
}

struct ThreadGuard {
  ~ThreadGuard() { set_default_threads(0); }
};

// --- EventQueue semantics ----------------------------------------------

TEST(EventQueue, CarriesSpikeMatchesCodecSemantics) {
  const double slice = 100e-9;
  EXPECT_TRUE(events::EventQueue::carries_spike(1e-9, slice));
  EXPECT_TRUE(events::EventQueue::carries_spike(slice, slice));  // boundary
  // Value 0 encodes to t = 0: the wordline never leaves 0 V.
  EXPECT_FALSE(events::EventQueue::carries_spike(0.0, slice));
  EXPECT_FALSE(events::EventQueue::carries_spike(-0.0, slice));
  // Silent line, garbage, and beyond-slice spikes are all inactive.
  EXPECT_FALSE(events::EventQueue::carries_spike(FastMvm::kNoSpike, slice));
  EXPECT_FALSE(events::EventQueue::carries_spike(kInf, slice));
  EXPECT_FALSE(events::EventQueue::carries_spike(kNaN, slice));
  EXPECT_FALSE(events::EventQueue::carries_spike(-3e-9, slice));
  EXPECT_FALSE(events::EventQueue::carries_spike(slice + 1e-12, slice));
}

TEST(EventQueue, BuildFiltersAndIndexes) {
  events::EventQueue q;
  const double slice = 100e-9;
  // rows:        0      1     2     3      4      5
  q.build(std::vector<double>{30e-9, 0.0, kInf, 10e-9, kNaN, 200e-9}, slice);
  EXPECT_EQ(q.total_rows(), 6u);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_FALSE(q.empty());
  RESIPE_EXPECT_ULP(q.activity(), 2.0 / 6.0, 0);
  // Row index: ascending row.
  ASSERT_EQ(q.active_rows().size(), 2u);
  EXPECT_EQ(q.active_rows()[0], 0u);
  EXPECT_EQ(q.active_rows()[1], 3u);
}

TEST(EventQueue, RowsInRangeComputesWakeSets) {
  events::EventQueue q;
  std::vector<double> t(64, 0.0);
  t[3] = 10e-9;
  t[31] = 20e-9;
  t[32] = 30e-9;
  t[60] = 40e-9;
  q.build(t, 100e-9);
  const auto lo = q.rows_in_range(0, 32);
  ASSERT_EQ(lo.size(), 2u);
  EXPECT_EQ(lo[0], 3u);
  EXPECT_EQ(lo[1], 31u);
  const auto hi = q.rows_in_range(32, 32);
  ASSERT_EQ(hi.size(), 2u);
  EXPECT_EQ(hi[0], 32u);
  EXPECT_EQ(hi[1], 60u);
  EXPECT_TRUE(q.any_in_range(60, 4));
  EXPECT_FALSE(q.any_in_range(4, 27));  // gap between the spikes
  EXPECT_TRUE(q.rows_in_range(33, 27).empty());
}

TEST(EventQueue, AllSilentAndEmptyInputs) {
  events::EventQueue q;
  q.build(std::vector<double>{0.0, kInf, kNaN, -0.0}, 100e-9);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.activity(), 0.0);
  EXPECT_FALSE(q.any_in_range(0, 4));
  q.build(std::span<const double>{}, 100e-9);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_rows(), 0u);
  EXPECT_EQ(q.activity(), 0.0);
}

// --- FastMvm sparse kernels --------------------------------------------

class SparseKernels : public ::testing::Test {
 protected:
  SparseKernels() : rng_(77) {
    g_.resize(kRows * kCols);
    for (double& g : g_) g = rng_.uniform(1e-6, 30e-6);
  }

  // Random input with the requested fraction of active rows; the rest
  // are split between t=0 and kNoSpike (both flavors of silent).
  std::vector<double> make_input(double activity) {
    std::vector<double> t(kRows);
    for (double& v : t) {
      if (rng_.uniform(0.0, 1.0) < activity) {
        v = rng_.uniform(1e-9, 99e-9);
      } else {
        v = rng_.uniform(0.0, 1.0) < 0.5 ? 0.0 : FastMvm::kNoSpike;
      }
    }
    return t;
  }

  static std::vector<std::uint32_t> wake_set(std::span<const double> t,
                                             double slice) {
    std::vector<std::uint32_t> rows;
    for (std::size_t r = 0; r < t.size(); ++r) {
      if (events::EventQueue::carries_spike(t[r], slice)) {
        rows.push_back(static_cast<std::uint32_t>(r));
      }
    }
    return rows;
  }

  static constexpr std::size_t kRows = 37;  // deliberately not lane-aligned
  static constexpr std::size_t kCols = 13;
  Rng rng_;
  std::vector<double> g_;
};

TEST_F(SparseKernels, SparseMatchesDenseBitwiseSimd) {
  if (!simd::enabled()) GTEST_SKIP() << "scalar build";
  const circuits::CircuitParams p;
  const FastMvm mvm(p, kRows, kCols, g_);
  for (double activity : {0.0, 0.05, 0.3, 0.7, 1.0}) {
    const auto t = make_input(activity);
    const auto rows = wake_set(t, p.slice_length);
    std::vector<double> dense(kCols), sparse(kCols);
    mvm.mvm_times(t, dense);
    mvm.mvm_times_sparse(t, rows, sparse);
    EXPECT_TRUE(bit_identical(dense, sparse)) << "activity " << activity;
  }
}

TEST_F(SparseKernels, SparseMatchesDenseBitwiseScalar) {
  simd::ForceScalarGuard guard;
  const circuits::CircuitParams p;
  const FastMvm mvm(p, kRows, kCols, g_);
  for (double activity : {0.0, 0.1, 0.5, 1.0}) {
    const auto t = make_input(activity);
    const auto rows = wake_set(t, p.slice_length);
    std::vector<double> dense(kCols), sparse(kCols);
    mvm.mvm_times(t, dense);
    mvm.mvm_times_sparse(t, rows, sparse);
    EXPECT_TRUE(bit_identical(dense, sparse)) << "activity " << activity;
  }
}

TEST_F(SparseKernels, IdleMatchesDenseAllSilentBitwise) {
  const circuits::CircuitParams p;
  const FastMvm mvm(p, kRows, kCols, g_);
  // Mixed silent encodings: t=0 and kNoSpike give the same 0 V drive.
  std::vector<double> t(kRows, 0.0);
  for (std::size_t r = 0; r < kRows; r += 3) t[r] = FastMvm::kNoSpike;
  std::vector<double> dense(kCols), idle(kCols);
  mvm.mvm_times(t, dense);
  mvm.idle_times(idle);
  EXPECT_TRUE(bit_identical(dense, idle));
  {
    simd::ForceScalarGuard guard;
    std::vector<double> dense_s(kCols), idle_s(kCols);
    mvm.mvm_times(t, dense_s);
    mvm.idle_times(idle_s);
    EXPECT_TRUE(bit_identical(dense_s, idle_s));
  }
}

TEST_F(SparseKernels, SparseRejectsBadWakeSets) {
  const circuits::CircuitParams p;
  const FastMvm mvm(p, kRows, kCols, g_);
  std::vector<double> t(kRows, 10e-9), out(kCols);
  EXPECT_THROW(
      mvm.mvm_times_sparse(t, std::vector<std::uint32_t>{kRows}, out),
      Error);  // row index out of range
  EXPECT_THROW(mvm.mvm_times_sparse(std::vector<double>{1e-9},
                                    std::vector<std::uint32_t>{}, out),
               Error);  // input size mismatch
  // Strictly ascending, on either kernel path: a repeated row would be
  // summed twice and an unsorted set would revisit a row chunk.
  for (const bool scalar : {false, true}) {
    std::optional<simd::ForceScalarGuard> guard;
    if (scalar) guard.emplace();
    EXPECT_THROW(
        mvm.mvm_times_sparse(t, std::vector<std::uint32_t>{1, 3, 3, 5}, out),
        Error);  // duplicate
    EXPECT_THROW(
        mvm.mvm_times_sparse(t, std::vector<std::uint32_t>{1, 9, 2}, out),
        Error);  // unsorted
  }
}

// --- ProgrammedMatrix / ResipeNetwork bit-identity ---------------------

std::vector<double> random_batch(std::size_t n, std::size_t dim, Rng& rng,
                                 double sparsity) {
  std::vector<double> x(n * dim, 0.0);
  for (double& v : x) {
    if (rng.uniform(0.0, 1.0) >= sparsity) v = rng.uniform(0.0, 1.0);
  }
  return x;
}

class MatrixEventPath : public ::testing::Test {
 protected:
  static ProgrammedMatrix build(const EngineConfig& cfg, Rng& rng) {
    std::vector<double> w(kIn * kOut);
    std::vector<double> b(kOut);
    for (double& v : w) v = rng.uniform(-0.5, 0.5);
    for (double& v : b) v = rng.uniform(-0.2, 0.2);
    return ProgrammedMatrix(cfg, w, b, kIn, kOut, rng);
  }

  // 32x32 tiles, and offset-column tiles 13 wide: a block width that
  // is no multiple of any vector width, so vector recovery runs its
  // staged tail.
  static std::vector<EngineConfig> tilings() {
    EngineConfig square;
    square.tile_rows = 32;
    square.tile_cols = 32;
    EngineConfig odd = square;
    odd.mapping = crossbar::SignedMapping::kOffsetColumn;
    odd.tile_cols = 13;
    return {square, odd};
  }

  static constexpr std::size_t kIn = 70;  // 3 row blocks at 32-row tiles
  static constexpr std::size_t kOut = 20;
};

TEST_F(MatrixEventPath, ForwardBitIdenticalAcrossConfigs) {
  for (const bool quantize : {true, false}) {
    EngineConfig dense_cfg;
    dense_cfg.tile_rows = 32;
    dense_cfg.tile_cols = 32;
    dense_cfg.quantize_spikes = quantize;
    EngineConfig event_cfg = dense_cfg;
    event_cfg.events.enabled = true;

    // Identical seeds => identical programmed conductances.
    Rng rng_a(11), rng_b(11), rng_x(12);
    const ProgrammedMatrix pm_dense = build(dense_cfg, rng_a);
    const ProgrammedMatrix pm_event = build(event_cfg, rng_b);
    ProgrammedMatrix::ProbeStats stats_dense, stats_event;
    for (double sparsity : {0.0, 0.5, 0.95, 1.0}) {
      const auto x = random_batch(1, kIn, rng_x, sparsity);
      std::vector<double> y_dense(kOut), y_event(kOut);
      pm_dense.forward(x, y_dense);
      pm_event.forward(x, y_event);
      EXPECT_TRUE(bit_identical(y_dense, y_event))
          << "quantize " << quantize << " sparsity " << sparsity;
      // A probed pass runs dense on either twin: same bits, same probes.
      std::vector<double> yp_dense(kOut), yp_event(kOut);
      pm_dense.forward_probed(x, yp_dense, stats_dense);
      pm_event.forward_probed(x, yp_event, stats_event);
      EXPECT_TRUE(bit_identical(y_dense, yp_dense));
      EXPECT_TRUE(bit_identical(yp_dense, yp_event));
    }
    EXPECT_EQ(stats_dense.vectors, 4u);
    EXPECT_EQ(stats_dense.spike_time_hist, stats_event.spike_time_hist);
    EXPECT_EQ(stats_dense.spikes, stats_event.spikes);
    EXPECT_EQ(stats_dense.no_spike, stats_event.no_spike);
    EXPECT_EQ(stats_dense.pinned_start, stats_event.pinned_start);
    EXPECT_EQ(stats_dense.pinned_end, stats_event.pinned_end);
    EXPECT_EQ(stats_dense.inputs_clamped, stats_event.inputs_clamped);
    EXPECT_EQ(stats_dense.vectors, stats_event.vectors);
  }
}

TEST_F(MatrixEventPath, ForwardBatchBitIdenticalIncludingEdgeSizes) {
  for (const EngineConfig& dense_cfg : tilings()) {
    EngineConfig event_cfg = dense_cfg;
    event_cfg.events.enabled = true;
    Rng rng_a(21), rng_b(21), rng_x(22);
    const ProgrammedMatrix pm_dense = build(dense_cfg, rng_a);
    const ProgrammedMatrix pm_event = build(event_cfg, rng_b);
    ProgrammedMatrix::BatchWorkspace ws_dense, ws_event;
    for (std::size_t n : {0u, 1u, 7u}) {
      const auto x = random_batch(n, kIn, rng_x, 0.8);
      std::vector<double> y_dense(n * kOut), y_event(n * kOut);
      pm_dense.forward_batch(x, n, y_dense, ws_dense);
      pm_event.forward_batch(x, n, y_event, ws_event);
      EXPECT_TRUE(bit_identical(y_dense, y_event))
          << "tile width " << dense_cfg.tile_cols << " batch " << n;
    }
  }
}

TEST_F(MatrixEventPath, EventBatchBitIdenticalToEventSingles) {
  // Both strategies: batch == single per sample.
  for (EngineConfig cfg : tilings()) {
    for (const bool events : {true, false}) {
      cfg.events.enabled = events;
      Rng rng(31), rng_x(32);
      const ProgrammedMatrix pm = build(cfg, rng);
      const std::size_t n = 5;
      const auto x = random_batch(n, kIn, rng_x, 0.7);
      std::vector<double> y_batch(n * kOut), y_single(n * kOut);
      ProgrammedMatrix::BatchWorkspace ws;
      pm.forward_batch(x, n, y_batch, ws);
      for (std::size_t s = 0; s < n; ++s) {
        pm.forward(std::span<const double>(x.data() + s * kIn, kIn),
                   std::span<double>(y_single.data() + s * kOut, kOut));
      }
      EXPECT_TRUE(bit_identical(y_batch, y_single))
          << "tile width " << cfg.tile_cols << " events " << events;
    }
  }
}

TEST_F(MatrixEventPath, IdleConstantsFollowTheRuntimeKernelPath) {
  // The idle constants are baked when the matrix is programmed, but the
  // SIMD mode may change before it runs.  Comparator delay and offsets
  // make idle columns spike inside the slice, so their recovered value
  // goes through the ramp's exp, which differs between the paths.  A
  // matrix built on one path and run on the other must still match its
  // dense twin, in both directions.
  EngineConfig dense_cfg;
  dense_cfg.tile_rows = 32;
  dense_cfg.tile_cols = 32;
  dense_cfg.circuit.comparator_delay = 2.0 * units::ns;
  dense_cfg.circuit.comparator_offset = 3.0 * units::mV;
  dense_cfg.circuit.comparator_offset_sigma = 5.0 * units::mV;
  EngineConfig event_cfg = dense_cfg;
  event_cfg.events.enabled = true;
  // 8 of 70 inputs active, all in the first row window: the other two
  // windows sleep.
  Rng rng_x(72);
  std::vector<double> x(kIn, 0.0);
  for (std::size_t i = 0; i < 32; i += 4) x[i] = rng_x.uniform(0.2, 1.0);
  for (const bool build_scalar : {false, true}) {
    Rng rng_a(71), rng_b(71);
    std::optional<simd::ForceScalarGuard> at_build;
    if (build_scalar) at_build.emplace();
    const ProgrammedMatrix pm_dense = build(dense_cfg, rng_a);
    const ProgrammedMatrix pm_event = build(event_cfg, rng_b);
    at_build.reset();
    std::optional<simd::ForceScalarGuard> at_run;
    if (!build_scalar) at_run.emplace();
    std::vector<double> y_dense(kOut), y_event(kOut);
    pm_dense.forward(x, y_dense);
    pm_event.forward(x, y_event);
    EXPECT_TRUE(bit_identical(y_dense, y_event))
        << (build_scalar ? "built scalar, run SIMD"
                         : "built SIMD, run scalar");
  }
}

TEST_F(MatrixEventPath, AllSilentInputYieldsExactBias) {
  // Every line silent: events path sleeps every group; the decode must
  // still produce exactly the dense result (which reduces to the bias
  // when the differential columns cancel bitwise).
  EngineConfig dense_cfg = EngineConfig::ideal();
  EngineConfig event_cfg = dense_cfg;
  event_cfg.events.enabled = true;
  Rng rng_a(41), rng_b(41);
  const ProgrammedMatrix pm_dense = build(dense_cfg, rng_a);
  const ProgrammedMatrix pm_event = build(event_cfg, rng_b);
  const std::vector<double> x(kIn, 0.0);
  std::vector<double> y_dense(kOut), y_event(kOut);
  pm_dense.forward(x, y_dense);
  pm_event.forward(x, y_event);
  EXPECT_TRUE(bit_identical(y_dense, y_event));
}

TEST_F(MatrixEventPath, AllSaturatedInputBitIdentical) {
  // Inputs at (and beyond) full scale: every row spikes at the clamp
  // boundary, the densest possible event load.
  EngineConfig dense_cfg;
  EngineConfig event_cfg = dense_cfg;
  event_cfg.events.enabled = true;
  Rng rng_a(51), rng_b(51);
  const ProgrammedMatrix pm_dense = build(dense_cfg, rng_a);
  const ProgrammedMatrix pm_event = build(event_cfg, rng_b);
  for (const double level : {1.0, 5.0}) {  // 5.0 clamps to full scale
    const std::vector<double> x(kIn, level);
    std::vector<double> y_dense(kOut), y_event(kOut);
    pm_dense.forward(x, y_dense);
    pm_event.forward(x, y_event);
    EXPECT_TRUE(bit_identical(y_dense, y_event)) << "level " << level;
  }
}

TEST_F(MatrixEventPath, ReliabilityComboBitIdentical) {
  // Fault-aware programming (spare columns, remapped slots) under the
  // event path: the wake/sleep decision must respect slot remapping.
  EngineConfig dense_cfg;
  dense_cfg.tile_rows = 32;
  dense_cfg.tile_cols = 32;
  dense_cfg.reliability.enabled = true;
  EngineConfig event_cfg = dense_cfg;
  event_cfg.events.enabled = true;
  Rng rng_a(61), rng_b(61), rng_x(62);
  const ProgrammedMatrix pm_dense = build(dense_cfg, rng_a);
  const ProgrammedMatrix pm_event = build(event_cfg, rng_b);
  for (double sparsity : {0.2, 0.9}) {
    const auto x = random_batch(1, kIn, rng_x, sparsity);
    std::vector<double> y_dense(kOut), y_event(kOut);
    pm_dense.forward(x, y_dense);
    pm_event.forward(x, y_event);
    EXPECT_TRUE(bit_identical(y_dense, y_event)) << "sparsity " << sparsity;
  }
}

TEST(NetworkEventPath, MlpLogitsBitIdenticalAtAnyThreadCount) {
  ThreadGuard restore;
  Rng rng(5);
  nn::Sequential model("event-mlp");
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(16, 12, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(12, 4, rng);
  nn::Tensor calib({8, 1, 4, 4});
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib[i] = rng.uniform(0.0, 1.0);

  // ReLU-sparse batch: zero out half the pixels so real layers see
  // genuinely silent rows.
  nn::Tensor batch({6, 1, 4, 4});
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch[i] = (i % 2 == 0) ? rng.uniform(0.0, 1.0) : 0.0;

  // Default tiles, and 7-wide offset-column tiles: a block width that
  // is no multiple of any vector width.
  EngineConfig odd;
  odd.mapping = crossbar::SignedMapping::kOffsetColumn;
  odd.tile_cols = 7;
  for (const EngineConfig& dense_cfg : {EngineConfig{}, odd}) {
    EngineConfig event_cfg = dense_cfg;
    event_cfg.events.enabled = true;
    const ResipeNetwork hw_dense(model, dense_cfg, calib);
    const ResipeNetwork hw_event(model, event_cfg, calib);
    set_default_threads(1);
    const nn::Tensor ref = hw_dense.forward(batch);
    for (const std::size_t threads : {1, 2, 8}) {
      set_default_threads(threads);
      EXPECT_TRUE(bit_identical(ref, hw_dense.forward(batch)))
          << "dense, tile width " << dense_cfg.tile_cols << ", threads "
          << threads;
      EXPECT_TRUE(bit_identical(ref, hw_event.forward(batch)))
          << "events, tile width " << dense_cfg.tile_cols << ", threads "
          << threads;
    }
  }
}

TEST(NetworkEventPath, ZooMlp1LogitsBitIdentical) {
  ThreadGuard restore;
  Rng rng(7);
  nn::Sequential model = nn::build_benchmark(nn::BenchmarkNet::kMlp1, rng);
  nn::Tensor calib({4, 1, 28, 28});
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib[i] = rng.uniform(0.0, 1.0);
  EngineConfig dense_cfg;
  EngineConfig event_cfg = dense_cfg;
  event_cfg.events.enabled = true;
  const ResipeNetwork hw_dense(model, dense_cfg, calib);
  const ResipeNetwork hw_event(model, event_cfg, calib);
  nn::Tensor batch({2, 1, 28, 28});
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch[i] = (i % 3 == 0) ? rng.uniform(0.0, 1.0) : 0.0;  // MNIST-sparse
  const nn::Tensor ref = hw_dense.forward(batch);
  for (const std::size_t threads : {1, 2, 8}) {
    set_default_threads(threads);
    EXPECT_TRUE(bit_identical(ref, hw_event.forward(batch)))
        << "threads " << threads;
  }
}

TEST(NetworkEventPath, ConvLogitsBitIdentical) {
  ThreadGuard restore;
  Rng rng(6);
  nn::Sequential model("event-cnn");
  model.emplace<nn::Conv2d>(1, 3, 3, 1, 1, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::MaxPool2d>(2);
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(3 * 3 * 3, 4, rng);
  nn::Tensor calib({4, 1, 6, 6});
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib[i] = rng.uniform(0.0, 1.0);
  EngineConfig dense_cfg;
  EngineConfig event_cfg = dense_cfg;
  event_cfg.events.enabled = true;
  const ResipeNetwork hw_dense(model, dense_cfg, calib);
  const ResipeNetwork hw_event(model, event_cfg, calib);
  // A silent input channel region: im2col turns it into contiguous
  // zero rows — the structured sparsity the event path exploits.
  nn::Tensor batch({3, 1, 6, 6});
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch[i] = (i % 4 == 0) ? rng.uniform(0.0, 1.0) : 0.0;
  const nn::Tensor ref = hw_dense.forward(batch);
  for (const std::size_t threads : {1, 2, 8}) {
    set_default_threads(threads);
    EXPECT_TRUE(bit_identical(ref, hw_event.forward(batch)))
        << "threads " << threads;
  }
}

// --- config plumbing ---------------------------------------------------

TEST(EventConfig, ValidatesAndStaysOutOfConfigHash) {
  EngineConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.events.enabled = true;
  EXPECT_NO_THROW(cfg.validate());
  // Cannot affect logits => must not churn the provenance hash keying
  // committed bench baselines.
  EngineConfig off;
  EngineConfig on;
  on.events.enabled = true;
  EXPECT_EQ(introspect::engine_config_hash(off),
            introspect::engine_config_hash(on));
}

TEST(EventPerf, SpansBookEventKernels) {
#if defined(RESIPE_TELEMETRY_DISABLED)
  GTEST_SKIP() << "kernel annotations compile away with telemetry off";
#else
  telemetry::set_enabled(true);
  telemetry::CallProfile::this_thread().reset();
  EngineConfig cfg;
  cfg.tile_rows = 32;
  cfg.tile_cols = 32;
  cfg.events.enabled = true;
  Rng rng(91);
  std::vector<double> w(70 * 20);
  std::vector<double> b(20, 0.0);
  for (double& v : w) v = rng.uniform(-0.5, 0.5);
  const ProgrammedMatrix pm(cfg, w, b, 70, 20, rng);
  std::vector<double> x(70, 0.0);
  x[0] = 0.8;  // one active row: most groups sleep
  std::vector<double> y(20);
  telemetry::MetricRegistry::instance().reset_values();
  pm.forward(x, y);
  // 70 rows in 32-row tiles make 3 row blocks; 20 outputs as
  // differential pairs make 40 physical columns, 2 column blocks.  Row
  // 0 wakes both column blocks of row block 0 with one event each, the
  // other 4 blocks sleep, and every row but row 0 is skipped per column
  // block.
  const auto counter = [](const char* name) {
    return telemetry::MetricRegistry::instance().counter(name).value();
  };
  EXPECT_EQ(counter("resipe_core.events.groups_woken"), 2u);
  EXPECT_EQ(counter("resipe_core.events.groups_skipped"), 4u);
  EXPECT_EQ(counter("resipe_core.events.delivered"), 2u);
  EXPECT_EQ(counter("resipe_core.events.rows_skipped"), 2u * (70u - 1u));
  std::uint64_t build_calls = 0, sparse_calls = 0, idle_calls = 0;
  std::uint64_t resolve_calls = 0;
  const perf::RooflineReport work = perf::build_roofline_report(
      telemetry::CallProfile::this_thread(), perf::MachineProfile{});
  for (const auto& k : work.kernels) {
    if (k.name == "resipe_core.events.queue_build") build_calls = k.calls;
    if (k.name == "resipe_core.events.mvm_times_sparse")
      sparse_calls = k.calls;
    if (k.name == "resipe_core.events.idle_times") idle_calls = k.calls;
    if (k.name == "resipe_core.events.idle_resolve")
      resolve_calls = k.calls;
  }
  EXPECT_EQ(build_calls, 1u);
  EXPECT_GE(sparse_calls, 1u);    // the block owning row 0 wakes
  EXPECT_GE(idle_calls, 1u);      // idle-recovery baking at programming
  EXPECT_GE(resolve_calls, 1u);   // the other row blocks sleep
  // MACs are the work model's count, the same on both kernel paths: one
  // active row over the 32 + 8 columns of the two woken blocks.
  EXPECT_EQ(counter("resipe_core.fast_mvm.mac_ops"), 40u);
  {
    simd::ForceScalarGuard scalar;
    telemetry::MetricRegistry::instance().reset_values();
    pm.forward(x, y);
    EXPECT_EQ(counter("resipe_core.fast_mvm.mac_ops"), 40u);
  }
  telemetry::set_enabled(false);
  telemetry::CallProfile::this_thread().reset();
#endif
}

}  // namespace
}  // namespace resipe::resipe_core
