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

// --- the voltage row list -------------------------------------------

TEST(DrivenRows, ListsWindowRowsNonzeroInAnySample) {
  // Three samples of a 9-wide input, read as the row window [2, 7) at
  // stride 9 (window row r at offset 2 + r), with every input outside
  // the window driven.  Window row 0 is +0.0 or -0.0 in every sample and
  // row 2 +0.0; row 1 is driven in the first sample, row 3 only in the
  // last, row 4 in all three.
  constexpr double kV = 0.25;
  // clang-format off
  const std::vector<double> v = {
      kV, kV,  0.0, kV,  0.0, 0.0,  kV, kV, kV,
      kV, kV, -0.0, 0.0, 0.0, 0.0,  kV, kV, kV,
      kV, kV,  0.0, 0.0, 0.0, -kV, 1e-300, kV, kV};
  // clang-format on
  using Rows = std::vector<FastMvm::Wordline>;
  const circuits::CircuitParams p;
  const FastMvm window(p, 5, 1, std::vector<double>(5, 1e-5));
  const Rows table = {{0, 2}, {1, 3}, {2, 4}, {3, 5}, {4, 6}};
  Rows rows = {{7, 7}, {7, 7}, {7, 7}};  // stale contents
  window.driven_rows(v, 3, 9, table, rows);
  EXPECT_EQ(rows, (Rows{{1, 3}, {3, 5}, {4, 6}}));
  // The first sample alone.
  window.driven_rows(v, 1, 9, table, rows);
  EXPECT_EQ(rows, (Rows{{1, 3}, {4, 6}}));
  // No samples, and a window silent in every sample, list nothing.
  window.driven_rows(v, 0, 9, table, rows);
  EXPECT_TRUE(rows.empty());
  const FastMvm first_row(p, 1, 1, {1e-5});
  first_row.driven_rows(v, 2, 9, Rows{{0, 2}}, rows);
  EXPECT_TRUE(rows.empty());
  // Overlapping samples one apart along the second input row: a two-row
  // window at offsets 11 and 12 reads only the signed zeros at 11 to 14
  // over three samples; a fourth sample reaches the kV at 15 through
  // row 1 only, and a fifth drives both rows.
  const FastMvm two(p, 2, 1, {1e-5, 1e-5});
  const Rows pair = {{0, 11}, {1, 12}};
  two.driven_rows(v, 3, 1, pair, rows);
  EXPECT_TRUE(rows.empty());
  two.driven_rows(v, 4, 1, pair, rows);
  EXPECT_EQ(rows, (Rows{{1, 12}}));
  two.driven_rows(v, 5, 1, pair, rows);
  EXPECT_EQ(rows, pair);
  // Fifteen samples one apart reach offset 26, the last voltage; a
  // sixteenth, a wider stride or an offset past the voltages throws, as
  // does a list that is not strictly ascending and in range.
  EXPECT_NO_THROW(two.driven_rows(v, 15, 1, pair, rows));
  EXPECT_THROW(two.driven_rows(v, 16, 1, pair, rows), Error);
  EXPECT_THROW(window.driven_rows(v, 3, 11, table, rows), Error);
  EXPECT_THROW(first_row.driven_rows(v, 1, 9, Rows{{0, 27}}, rows), Error);
  EXPECT_THROW(two.driven_rows(v, 1, 9, Rows{{1, 3}, {0, 2}}, rows), Error);
  EXPECT_THROW(two.driven_rows(v, 1, 9, Rows{{0, 2}, {2, 3}}, rows), Error);
}

// --- FastMvm row-list stages ------------------------------------------

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

  // S1 over spike times `t` ([n, kRows]): the voltages the row list
  // and the voltage stage read.
  static std::vector<double> volts(const FastMvm& mvm,
                                   std::span<const double> t) {
    std::vector<double> v(t.size());
    FastMvm::wordline(mvm.params(), t, v);
    return v;
  }

  using Rows = std::vector<FastMvm::Wordline>;

  // The rows of voltages `v` ([n, kRows]) driven in any sample.
  static Rows wake_set(const FastMvm& mvm, std::span<const double> v,
                       std::size_t n = 1) {
    Rows rows;
    mvm.driven_rows(v, n, kRows, mvm.all_rows(), rows);
    return rows;
  }

  // S1 then the voltage stage over `rows`, as the forward loop runs
  // them, with sample s's voltages at s * stride of a buffer whose other
  // entries are NaN: reading one would poison the output.
  static std::vector<double> run_listed(const FastMvm& mvm,
                                        std::span<const double> t,
                                        std::size_t n,
                                        std::span<const FastMvm::Wordline> rows,
                                        std::size_t stride = kRows) {
    std::vector<double> v(n * stride, kNaN);
    for (std::size_t s = 0; s < n; ++s) {
      FastMvm::wordline(mvm.params(), t.subspan(s * kRows, kRows),
                        std::span<double>(v).subspan(s * stride, kRows));
    }
    std::vector<double> out(n * kCols);
    mvm.mvm_voltages_batch(v, n, stride, rows, out, kCols);
    return out;
  }

  // The same call from the voltages transposed to [kRows, n]: samples
  // one apart, overlapping, row r at offset r * n.  Its row list is the
  // driven rows of that layout.
  static std::vector<double> run_transposed(const FastMvm& mvm,
                                            std::span<const double> t,
                                            std::size_t n) {
    std::vector<double> v(t.size());
    FastMvm::wordline(mvm.params(), t, v);
    std::vector<double> v_t(t.size());
    Rows table(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      table[r] = {static_cast<std::uint32_t>(r),
                  static_cast<std::uint32_t>(r * n)};
      for (std::size_t s = 0; s < n; ++s) v_t[r * n + s] = v[s * kRows + r];
    }
    Rows rows;
    mvm.driven_rows(v_t, n, 1, table, rows);
    std::vector<double> out(n * kCols);
    mvm.mvm_voltages_batch(v_t, n, 1, rows, out, kCols);
    return out;
  }

  // Per sample and over the whole batch, at the packed stride and a
  // wider one: the row list of the driven rows gives mvm_times' and
  // mvm_times_batch's bits.
  void expect_listed_matches_dense(const FastMvm& mvm,
                                   std::initializer_list<double> activities) {
    std::vector<double> batch;
    for (const double activity : activities) {
      const auto t = make_input(activity);
      batch.insert(batch.end(), t.begin(), t.end());
      std::vector<double> dense(kCols);
      mvm.mvm_times(t, dense);
      const auto rows = wake_set(mvm, volts(mvm, t));
      EXPECT_TRUE(bit_identical(dense, run_listed(mvm, t, 1, rows)))
          << "activity " << activity;
    }
    const std::size_t n = activities.size();
    std::vector<double> dense(n * kCols);
    FastMvm::BatchScratch scratch;
    mvm.mvm_times_batch(batch, n, dense, scratch);
    const auto rows = wake_set(mvm, volts(mvm, batch), n);
    for (const std::size_t stride : {kRows, kRows + 5}) {
      EXPECT_TRUE(bit_identical(dense, run_listed(mvm, batch, n, rows, stride)))
          << "stride " << stride;
    }
    EXPECT_TRUE(bit_identical(dense, run_transposed(mvm, batch, n)));
  }

  static constexpr std::size_t kRows = 37;  // deliberately not lane-aligned
  static constexpr std::size_t kCols = 13;
  Rng rng_;
  std::vector<double> g_;
};

TEST_F(SparseKernels, SparseMatchesDenseBitwiseSimd) {
  if (!simd::enabled()) GTEST_SKIP() << "scalar build";
  const FastMvm mvm(circuits::CircuitParams{}, kRows, kCols, g_);
  expect_listed_matches_dense(mvm, {0.0, 0.05, 0.3, 0.7, 1.0});
}

TEST_F(SparseKernels, SparseMatchesDenseBitwiseScalar) {
  simd::ForceScalarGuard guard;
  const FastMvm mvm(circuits::CircuitParams{}, kRows, kCols, g_);
  expect_listed_matches_dense(mvm, {0.0, 0.1, 0.5, 1.0});
}

TEST_F(SparseKernels, IdleMatchesDenseAllSilentBitwise) {
  const circuits::CircuitParams p;
  const FastMvm mvm(p, kRows, kCols, g_);
  // Mixed silent encodings: t=0 and kNoSpike give the same 0 V drive.
  // Two silent samples over the empty list: S2 alone.
  std::vector<double> t(2 * kRows, 0.0);
  for (std::size_t r = 0; r < t.size(); r += 3) t[r] = FastMvm::kNoSpike;
  for (const bool scalar : {false, true}) {
    std::optional<simd::ForceScalarGuard> guard;
    if (scalar) guard.emplace();
    std::vector<double> dense(2 * kCols);
    FastMvm::BatchScratch scratch;
    mvm.mvm_times_batch(t, 2, dense, scratch);
    EXPECT_TRUE(bit_identical(dense, run_listed(mvm, t, 2, {})))
        << (scalar ? "scalar" : "active path");
  }
}

TEST_F(SparseKernels, SparseRejectsBadWakeSets) {
  const circuits::CircuitParams p;
  const FastMvm mvm(p, kRows, kCols, g_);
  const std::vector<double> v(2 * kRows + 1, 0.1);
  std::vector<double> out(kCols);
  // Strictly ascending and in range, on either kernel path: a repeated
  // row would be summed twice.
  const auto at_own_index = [](std::initializer_list<std::uint32_t> rows) {
    Rows list;
    for (const std::uint32_t r : rows) list.push_back({r, r});
    return list;
  };
  for (const bool scalar : {false, true}) {
    std::optional<simd::ForceScalarGuard> guard;
    if (scalar) guard.emplace();
    for (const Rows& bad : {at_own_index({kRows}),          // out of range
                            at_own_index({1, 3, 3, 5}),     // duplicate
                            at_own_index({1, 9, 2})}) {     // unsorted
      EXPECT_THROW(mvm.mvm_voltages_batch(v, 1, kRows, bad, out, kCols),
                   Error);
    }
  }
  // Every row at its own index: two samples at stride kRows + 1 reach
  // offset 2 * kRows, the last voltage, and a wider stride reads past
  // it.  Samples may overlap, down to stride 0.  A listed offset past
  // the voltages throws even for one sample; with no rows or no samples
  // nothing is read.  The output must hold n rows at an output stride no
  // narrower than the columns.
  std::vector<double> out2(2 * kCols);
  const auto all = mvm.all_rows();
  EXPECT_NO_THROW(mvm.mvm_voltages_batch(v, 2, kRows + 1, all, out2, kCols));
  EXPECT_THROW(mvm.mvm_voltages_batch(v, 2, kRows + 2, all, out2, kCols),
               Error);
  EXPECT_NO_THROW(mvm.mvm_voltages_batch(v, 2, kRows - 1, all, out2, kCols));
  EXPECT_NO_THROW(mvm.mvm_voltages_batch(v, 2, 0, all, out2, kCols));
  EXPECT_THROW(mvm.mvm_voltages_batch(v, 1, 0, Rows{{0, 2 * kRows + 1}},
                                      out, kCols),
               Error);
  EXPECT_NO_THROW(mvm.mvm_voltages_batch({}, 2, kRows, {}, out2, kCols));
  EXPECT_NO_THROW(mvm.mvm_voltages_batch({}, 0, kRows, all, {}, kCols));
  EXPECT_THROW(mvm.mvm_voltages_batch(v, 2, kRows, {}, out, kCols), Error);
  EXPECT_THROW(mvm.mvm_voltages_batch(v, 1, kRows, {}, out, kCols - 1),
               Error);
  EXPECT_THROW(mvm.mvm_voltages_batch(v, 1, kRows, {}, out2, kCols + 1),
               Error);
  std::vector<double> one(1);
  EXPECT_THROW(FastMvm::wordline(p, v, one), Error);
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
      // A probed pass runs the same loop on either twin: same bits,
      // same probes.
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

TEST_F(MatrixEventPath, SilentWindowsFollowTheRuntimeKernelPath) {
  // A row window silent across the batch runs S2 over no rows on the
  // kernel path active at run time, which may differ from the one the
  // matrix was programmed on.  Comparator delay and offsets make its
  // columns spike inside the slice, so their recovered value goes
  // through the ramp's exp, which differs between the paths.  A matrix
  // built on one path and run on the other must still match its dense
  // twin, in both directions.
  EngineConfig dense_cfg;
  dense_cfg.tile_rows = 32;
  dense_cfg.tile_cols = 32;
  dense_cfg.circuit.comparator_delay = 2.0 * units::ns;
  dense_cfg.circuit.comparator_offset = 3.0 * units::mV;
  dense_cfg.circuit.comparator_offset_sigma = 5.0 * units::mV;
  EngineConfig event_cfg = dense_cfg;
  event_cfg.events.enabled = true;
  // 8 of 70 inputs active, all in the first row window: the other two
  // windows are silent.
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

TEST_F(MatrixEventPath, DisjointWindowsAndASilentSampleInOneBatch) {
  // One batch whose samples spike in disjoint row windows, plus an
  // all-silent sample: every window's row list comes from a different
  // sample, and no sample spikes in the others' windows.  Comparator
  // offsets make silent columns spike, so the probes see both outcomes.
  ThreadGuard restore;
  EngineConfig dense_cfg;
  dense_cfg.tile_rows = 32;
  dense_cfg.tile_cols = 32;
  dense_cfg.circuit.comparator_offset_sigma = 5.0 * units::mV;
  EngineConfig event_cfg = dense_cfg;
  event_cfg.events.enabled = true;
  Rng rng_a(81), rng_b(81), rng_x(82);
  const ProgrammedMatrix pm_dense = build(dense_cfg, rng_a);
  const ProgrammedMatrix pm_event = build(event_cfg, rng_b);
  // Samples 0, 1 and 2 spike only in windows [0, 32), [32, 64) and
  // [64, 70); sample 3 is silent.
  constexpr std::size_t n = 4;
  std::vector<double> x(n * kIn, 0.0);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t i = 32 * s; i < std::min(kIn, 32 * (s + 1)); ++i) {
      if (rng_x.uniform(0.0, 1.0) < 0.5) {
        x[s * kIn + i] = rng_x.uniform(0.0, 1.0);
      }
    }
  }
  for (const std::size_t threads : {1, 2, 8}) {
    set_default_threads(threads);
    for (const bool scalar : {false, true}) {
      std::optional<simd::ForceScalarGuard> guard;
      if (scalar) guard.emplace();
      std::vector<double> y_single(n * kOut);
      for (std::size_t s = 0; s < n; ++s) {
        pm_dense.forward(std::span<const double>(x).subspan(s * kIn, kIn),
                         std::span<double>(y_single).subspan(s * kOut, kOut));
      }
      std::vector<double> y_dense(n * kOut), y_event(n * kOut);
      ProgrammedMatrix::BatchWorkspace ws_dense, ws_event;
      pm_dense.forward_batch(x, n, y_dense, ws_dense);
      pm_event.forward_batch(x, n, y_event, ws_event);
      EXPECT_TRUE(bit_identical(y_single, y_dense))
          << "threads " << threads << (scalar ? ", scalar" : "");
      EXPECT_TRUE(bit_identical(y_single, y_event))
          << "threads " << threads << (scalar ? ", scalar" : "");
      ProgrammedMatrix::ProbeStats stats_dense, stats_event;
      for (std::size_t s = 0; s < n; ++s) {
        const auto xs = std::span<const double>(x).subspan(s * kIn, kIn);
        std::vector<double> yp_dense(kOut), yp_event(kOut);
        pm_dense.forward_probed(xs, yp_dense, stats_dense);
        pm_event.forward_probed(xs, yp_event, stats_event);
        EXPECT_TRUE(bit_identical(yp_dense, yp_event)) << "sample " << s;
        EXPECT_TRUE(bit_identical(
            yp_event,
            std::span<const double>(y_event).subspan(s * kOut, kOut)))
            << "sample " << s;
      }
      EXPECT_EQ(stats_dense.spike_time_hist, stats_event.spike_time_hist);
      EXPECT_EQ(stats_dense.spikes, stats_event.spikes);
      EXPECT_EQ(stats_dense.no_spike, stats_event.no_spike);
      EXPECT_EQ(stats_dense.pinned_start, stats_event.pinned_start);
      EXPECT_EQ(stats_dense.pinned_end, stats_event.pinned_end);
      EXPECT_EQ(stats_dense.inputs_clamped, stats_event.inputs_clamped);
      EXPECT_EQ(stats_event.vectors, n);
    }
  }
}

TEST_F(MatrixEventPath, AllSilentInputYieldsExactBias) {
  // Every line silent: every row window runs S2 over no rows; the
  // decode must still produce exactly the dense result (which reduces
  // to the bias when the differential columns cancel bitwise).
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
  // Three samples: one active row in the first row window, one in the
  // second, and a silent sample.
  constexpr std::size_t n = 3;
  std::vector<double> x(n * 70, 0.0);
  x[0] = 0.8;
  x[70 + 40] = 0.5;
  std::vector<double> y(n * 20);
  ProgrammedMatrix::BatchWorkspace ws;
  telemetry::MetricRegistry::instance().reset_values();
  pm.forward_batch(x, n, y, ws);
  // 70 rows in 32-row tiles make 3 row windows; 20 outputs as
  // differential pairs make 40 physical columns, 2 column blocks.  The
  // counters count block calls, each over the whole batch: the first
  // two windows list one row each (0 and 40 - 32) and wake both their
  // column blocks; the third lists none, so its 2 blocks are skipped.
  const auto counter = [](const char* name) {
    return telemetry::MetricRegistry::instance().counter(name).value();
  };
  EXPECT_EQ(counter("resipe_core.events.queued"), 2u);
  EXPECT_EQ(counter("resipe_core.events.groups_woken"), 4u);
  EXPECT_EQ(counter("resipe_core.events.groups_skipped"), 2u);
  EXPECT_EQ(counter("resipe_core.events.delivered"), 4u);
  EXPECT_EQ(counter("resipe_core.events.rows_skipped"),
            2u * (31u + 31u + 6u));
  std::uint64_t list_calls = 0, wordline_calls = 0, voltage_calls = 0;
  const perf::RooflineReport work = perf::build_roofline_report(
      telemetry::CallProfile::this_thread(), perf::MachineProfile{});
  for (const auto& k : work.kernels) {
    if (k.name == "resipe_core.fast_mvm.driven_rows") list_calls = k.calls;
    if (k.name == "resipe_core.fast_mvm.wordline") wordline_calls = k.calls;
    if (k.name == "resipe_core.fast_mvm.mvm_voltages_batch")
      voltage_calls = k.calls;
  }
  EXPECT_EQ(list_calls, 3u);      // one per row window
  EXPECT_EQ(wordline_calls, 1u);  // S1 once, in the batch's encode
  EXPECT_EQ(voltage_calls, 6u);   // one per block
  // MACs are the work model's count, the same on both kernel paths:
  // 3 samples x 1 listed row over the 32 + 8 columns of each of the two
  // woken windows.
  EXPECT_EQ(counter("resipe_core.fast_mvm.mac_ops"), 2u * 3u * 40u);
  {
    simd::ForceScalarGuard scalar;
    telemetry::MetricRegistry::instance().reset_values();
    pm.forward_batch(x, n, y, ws);
    EXPECT_EQ(counter("resipe_core.fast_mvm.mac_ops"), 2u * 3u * 40u);
  }
  telemetry::set_enabled(false);
  telemetry::CallProfile::this_thread().reset();
#endif
}

}  // namespace
}  // namespace resipe::resipe_core
