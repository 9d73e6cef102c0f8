// Performance-observability layer: analytic work models (hand-counted),
// work booked into the call tree, roofline report internal consistency,
// folded-stack export, perf-counter graceful degradation and the
// telemetry on/off bit-identity guarantee.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "resipe/circuits/params.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/device/reram.hpp"
#include "resipe/perf/perf_counters.hpp"
#include "resipe/perf/roofline.hpp"
#include "resipe/perf/work_model.hpp"
#include "resipe/resipe/fast_mvm.hpp"
#include "resipe/resipe/spike_code.hpp"
#include "resipe/resipe/tile.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace {

using namespace resipe;

// Restores the telemetry switch and the thread's call tree so tests
// cannot leak state into each other.
struct PerfSwitchGuard {
  PerfSwitchGuard() {
    telemetry::set_enabled(true);
    telemetry::CallProfile::this_thread().reset();
  }
  ~PerfSwitchGuard() {
    telemetry::set_enabled(false);
    telemetry::CallProfile::this_thread().reset();
  }
};

// The top-level node named `name` in the calling thread's tree.
[[maybe_unused]] const telemetry::ProfileNode* top_node(const char* name) {
  for (const auto& c : telemetry::CallProfile::this_thread().root().children) {
    if (std::strcmp(c->name, name) == 0) return c.get();
  }
  return nullptr;
}

resipe_core::FastMvm random_mvm(std::size_t rows, std::size_t cols,
                                Rng& rng) {
  const device::ReramSpec spec = device::ReramSpec::nn_mapping();
  std::vector<double> g(rows * cols);
  for (double& v : g) v = rng.uniform(spec.g_min(), spec.g_max());
  return resipe_core::FastMvm(circuits::CircuitParams::paper_defaults(),
                              rows, cols, g);
}

// --- analytic model hand counts ----------------------------------------

TEST(WorkModel, FastMvmHandCount3x2) {
  // 4 flops/row * 3 + 2 flops/cell * 6 + 10 flops/col * 2 = 44 exactly.
  const perf::WorkCost c = perf::fast_mvm_cost(3, 2);
  EXPECT_EQ(c.flops, 44.0);
  // 8 * (2*3 + 2*3*2 + 4*2) = 8 * 26 = 208.
  EXPECT_EQ(c.bytes, 208.0);
}

TEST(WorkModel, FastMvmBatchFlopsAreExactlyNTimesSingle) {
  const perf::WorkCost single = perf::fast_mvm_cost(5, 3);
  const perf::WorkCost batch = perf::fast_mvm_batch_cost(5, 3, 7);
  EXPECT_EQ(batch.flops, 7.0 * single.flops);
  // 8 * (2*7*5 + 5*3 + 7*5*3 + 3*3 + 3*7*3) = 8 * (70+15+105+9+63).
  EXPECT_EQ(batch.bytes, 8.0 * 262.0);
  // Batch amortizes the matrix stream: fewer bytes than n singles.
  EXPECT_LT(batch.bytes, 7.0 * single.bytes);
  // The S1 and voltage-fed stages split the batch cost exactly:
  // 4*7*5 = 140 flops and 8 * 2*7*5 = 560 bytes of S1.
  const perf::WorkCost s1 = perf::fast_mvm_wordline_cost(5, 7);
  const perf::WorkCost rest = perf::fast_mvm_voltages_cost(5, 3, 7);
  EXPECT_EQ(s1.flops, 140.0);
  EXPECT_EQ(s1.bytes, 560.0);
  EXPECT_EQ(s1.flops + rest.flops, batch.flops);
  EXPECT_EQ(s1.bytes + rest.bytes, batch.bytes);
}

TEST(WorkModel, TileHandCount2x2) {
  // 6*2 + 4*4 + 12*2 = 52; bytes 8 * (2*2 + 2*4 + 2*2) = 128.
  const perf::WorkCost c = perf::tile_execute_cost(2, 2);
  EXPECT_EQ(c.flops, 52.0);
  EXPECT_EQ(c.bytes, 128.0);
}

TEST(WorkModel, IrDropHandCount2x3) {
  // 9 flops/cell * 6 + 2 flops/col * 3 = 60;
  // bytes 8 * (2 + 6 + 2*3) = 112.
  const perf::WorkCost c = perf::ir_drop_solve_cost(2, 3);
  EXPECT_EQ(c.flops, 60.0);
  EXPECT_EQ(c.bytes, 112.0);
}

TEST(WorkModel, CodecCostsAreConstants) {
  EXPECT_GT(perf::spike_encode_cost().flops, 0.0);
  EXPECT_GT(perf::spike_encode_cost().bytes, 0.0);
  EXPECT_GT(perf::spike_decode_cost().flops, 0.0);
}

TEST(WorkModel, SparseAndIdleBookingsHandCount) {
#if defined(RESIPE_TELEMETRY_DISABLED)
  GTEST_SKIP() << "kernel annotations compile away with telemetry off";
#else
  Rng rng(10);
  const resipe_core::FastMvm mvm = random_mvm(3, 2, rng);
  PerfSwitchGuard guard;
  const std::vector<double> t_in(3, 1e-9);
  const std::vector<resipe_core::FastMvm::Wordline> active = {{0, 0},
                                                              {2, 2}};
  std::vector<double> v_wl(3);
  std::vector<double> t_out(2);
  // S1 books every time it converts; the voltage stage books the work
  // model over the listed rows: two of three here, then none (S2 alone,
  // as for a window silent across the batch).
  resipe_core::FastMvm::wordline(mvm.params(), t_in, v_wl);
  std::vector<resipe_core::FastMvm::Wordline> driven;
  mvm.driven_rows(v_wl, 1, 3, mvm.all_rows(), driven);
  mvm.mvm_voltages_batch(v_wl, 1, 3, active, t_out, 2);
  mvm.mvm_voltages_batch(v_wl, 1, 3, {}, t_out, 2);

  // S1 over 3 times: 4*3 = 12 flops; bytes 8 * 2*3 = 48.
  const telemetry::ProfileNode* s1 = top_node("resipe_core.fast_mvm.wordline");
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->count, 1u);
  EXPECT_EQ(s1->flops, 12.0);
  EXPECT_EQ(s1->bytes, 48.0);
  // The row list tests the 3 voltages: 3 flops; bytes 8 * (3 + 3) = 48.
  const telemetry::ProfileNode* list =
      top_node("resipe_core.fast_mvm.driven_rows");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(driven.size(), 3u);
  EXPECT_EQ(list->count, 1u);
  EXPECT_EQ(list->flops, 3.0);
  EXPECT_EQ(list->bytes, 48.0);
  // Voltage stage over 2 rows and 2 columns: 2*2*2 + 10*2 = 28 flops,
  // bytes 8 * (2*2 + 2*2 + 3*2 + 3*2) = 160; over no rows 10*2 = 20
  // flops, 8 * (3*2 + 3*2) = 96 bytes.
  const telemetry::ProfileNode* rest =
      top_node("resipe_core.fast_mvm.mvm_voltages_batch");
  ASSERT_NE(rest, nullptr);
  EXPECT_EQ(rest->count, 2u);
  EXPECT_EQ(rest->flops, 28.0 + 20.0);
  EXPECT_EQ(rest->bytes, 160.0 + 96.0);
#endif
}

// --- work booked into the call tree by the real kernels ---------------

TEST(SpanWork, FastMvmBooksExactAnalyticWork) {
#if defined(RESIPE_TELEMETRY_DISABLED)
  GTEST_SKIP() << "kernel annotations compile away with telemetry off";
#else
  Rng rng(11);
  const resipe_core::FastMvm mvm = random_mvm(3, 2, rng);
  const resipe_core::SpikeCodec codec(
      circuits::CircuitParams::paper_defaults());
  std::vector<double> t_in(3);
  for (double& t : t_in) t = codec.encode(rng.uniform(0.0, 1.0)).arrival_time;
  std::vector<double> t_out(2);
  PerfSwitchGuard guard;
  constexpr std::uint64_t kCalls = 5;
  for (std::uint64_t i = 0; i < kCalls; ++i) mvm.mvm_times(t_in, t_out);

  const telemetry::ProfileNode* node =
      top_node("resipe_core.fast_mvm.mvm_times");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->count, kCalls);
  // Analytic counts accumulate exactly (no float drift at this size).
  EXPECT_EQ(node->flops, static_cast<double>(kCalls) * 44.0);
  EXPECT_EQ(node->bytes, static_cast<double>(kCalls) * 208.0);
  EXPECT_GT(node->total_ns, 0u);
#endif
}

TEST(SpanWork, DisabledTelemetryBooksNothing) {
  Rng rng(12);
  const resipe_core::FastMvm mvm = random_mvm(4, 2, rng);
  PerfSwitchGuard guard;
  telemetry::set_enabled(false);
  std::vector<double> t_in(4, 1e-9);
  std::vector<double> t_out(2);
  mvm.mvm_times(t_in, t_out);
  EXPECT_TRUE(telemetry::CallProfile::this_thread().root().children.empty());
}

TEST(SpanWork, TelemetryOnOffIsBitIdentical) {
  Rng rng(13);
  const resipe_core::FastMvm mvm = random_mvm(16, 8, rng);
  const resipe_core::SpikeCodec codec(
      circuits::CircuitParams::paper_defaults());
  std::vector<double> t_in(16);
  for (double& t : t_in) {
    t = codec.encode(rng.uniform(0.0, 1.0)).arrival_time;
  }
  PerfSwitchGuard guard;
  std::vector<double> off(8), on(8);
  telemetry::set_enabled(false);
  mvm.mvm_times(t_in, off);
  telemetry::set_enabled(true);
  mvm.mvm_times(t_in, on);
  EXPECT_EQ(0, std::memcmp(off.data(), on.data(), 8 * sizeof(double)));
}

// --- roofline report ---------------------------------------------------

TEST(Roofline, RatesAreInternallyConsistent) {
#if defined(RESIPE_TELEMETRY_DISABLED)
  GTEST_SKIP() << "kernel annotations compile away with telemetry off";
#else
  PerfSwitchGuard guard;
  Rng rng(14);
  const resipe_core::FastMvm mvm = random_mvm(32, 16, rng);
  const resipe_core::SpikeCodec codec(
      circuits::CircuitParams::paper_defaults());
  std::vector<double> t_in(32);
  for (double& t : t_in) {
    t = codec.encode(rng.uniform(0.0, 1.0)).arrival_time;
  }
  std::vector<double> t_out(16);
  for (int i = 0; i < 50; ++i) mvm.mvm_times(t_in, t_out);

  perf::MachineProfile machine;
  machine.peak_gflops = 10.0;
  machine.peak_gbs = 20.0;
  const perf::RooflineReport report = perf::build_roofline_report(
      telemetry::CallProfile::this_thread(), machine);
  ASSERT_FALSE(report.kernels.empty());
  for (const auto& k : report.kernels) {
    if (!k.timed) continue;
    // Acceptance contract: GFLOP/s == intensity * GB/s within 1%
    // (holds to rounding by construction).
    EXPECT_NEAR(k.gflops, k.intensity * k.gbs, 0.01 * k.gflops) << k.name;
    EXPECT_GT(k.seconds, 0.0);
    EXPECT_LE(k.attainable_gflops, machine.peak_gflops);
  }
#endif
}

TEST(Roofline, ClassifiesAgainstRidgePoint) {
  PerfSwitchGuard guard;
  perf::MachineProfile machine;
  machine.peak_gflops = 8.0;  // ridge = 2 FLOP/byte
  machine.peak_gbs = 4.0;
  EXPECT_DOUBLE_EQ(machine.ridge(), 2.0);

  // Hand-built tree: the memory-bound kernel sits under two parents and
  // the report sums it per name; the work-free parents are left out.
  telemetry::ProfileNode& top =
      *telemetry::CallProfile::this_thread().current();
  const auto book = [](telemetry::ProfileNode& n, double flops,
                       double bytes) {
    n.count += 1;
    n.total_ns += 1000;
    n.flops += flops;
    n.bytes += bytes;
  };
  book(top.child("a").child("t.mem_bound"), 50.0, 500.0);  // 0.1 < ridge
  book(top.child("b").child("t.mem_bound"), 50.0, 500.0);
  book(top.child("t.compute_bound"), 1000.0, 100.0);  // 10 > ridge

  const perf::RooflineReport report = perf::build_roofline_report(
      telemetry::CallProfile::this_thread(), machine);
  ASSERT_EQ(report.kernels.size(), 2u);
  bool saw_mem = false, saw_comp = false;
  for (const auto& k : report.kernels) {
    if (k.name == "t.mem_bound") {
      saw_mem = true;
      EXPECT_EQ(k.calls, 2u);
      EXPECT_EQ(k.flops, 100.0);
      EXPECT_EQ(k.bytes, 1000.0);
      EXPECT_TRUE(k.memory_bound);
      // Ceiling at intensity 0.1: 0.1 * 4 = 0.4 GFLOP/s.
      EXPECT_DOUBLE_EQ(k.attainable_gflops, 0.4);
    }
    if (k.name == "t.compute_bound") {
      saw_comp = true;
      EXPECT_FALSE(k.memory_bound);
      EXPECT_DOUBLE_EQ(k.attainable_gflops, 8.0);
    }
  }
  EXPECT_TRUE(saw_mem);
  EXPECT_TRUE(saw_comp);
  const std::string ascii = report.render_ascii();
  EXPECT_NE(ascii.find("t.mem_bound"), std::string::npos);
  EXPECT_NE(ascii.find("memory"), std::string::npos);
  EXPECT_NE(ascii.find("compute"), std::string::npos);

  std::ostringstream os;
  report.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bound\":\"memory\""), std::string::npos);
  EXPECT_NE(json.find("\"bound\":\"compute\""), std::string::npos);
}

TEST(Roofline, MachineCalibrationProducesPositiveCeilings) {
  // Tiny budget: this is a smoke test of the calibration loops, not a
  // bandwidth measurement.
  const perf::MachineProfile p = perf::calibrate_machine(2.0, 1 << 14);
  EXPECT_GT(p.peak_gflops, 0.0);
  EXPECT_GT(p.peak_gbs, 0.0);
  EXPECT_GT(p.ridge(), 0.0);
  EXPECT_FALSE(p.fingerprint.empty());
  EXPECT_EQ(p.fingerprint_hash.size(), 16u);
  EXPECT_EQ(p.fingerprint, perf::machine_fingerprint());
}

// --- folded stacks and annotated tree ----------------------------------

TEST(FoldedStacks, EmitsSemicolonPathsWithSelfTime) {
  PerfSwitchGuard guard;
  {
    telemetry::ScopedTimer outer("outer");
    for (volatile int i = 0; i < 1000; ++i) {
    }
    {
      telemetry::ScopedTimer inner("inner");
      for (volatile int i = 0; i < 1000; ++i) {
      }
    }
  }
  const std::string folded =
      perf::folded_stacks(telemetry::CallProfile::this_thread());
  // One line per node with self time: "outer N" and "outer;inner M".
  EXPECT_NE(folded.find("outer;inner "), std::string::npos);
  std::istringstream is(folded);
  std::string stack;
  std::uint64_t value = 0;
  std::size_t lines = 0;
  while (is >> stack >> value) {
    ++lines;
    EXPECT_GE(value, 1u) << stack;
  }
  EXPECT_GE(lines, 2u);
}

TEST(AnnotatedProfile, AppendsRatesToKnownRegions) {
  PerfSwitchGuard guard;
  const auto hot = [](double flops) {
    telemetry::ScopedTimer t("region.hot", [&] {
      return telemetry::WorkCost{flops, 500.0};
    });
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  };
  {
    telemetry::ScopedTimer a("path.a");
    hot(1000.0);
  }
  {
    telemetry::ScopedTimer b("path.b");
    hot(10.0);
    hot(10.0);
  }
  telemetry::book_work("region.cold", {6.0, 3.0});

  // Work is exact per node: the same span under two parents carries
  // each path's own cost, not a per-name mean.
  const telemetry::ProfileNode& root =
      telemetry::CallProfile::this_thread().root();
  ASSERT_EQ(root.children.size(), 3u);
  EXPECT_EQ(root.children[0]->children[0]->flops, 1000.0);
  EXPECT_EQ(root.children[1]->children[0]->count, 2u);
  EXPECT_EQ(root.children[1]->children[0]->flops, 20.0);
  EXPECT_EQ(root.children[1]->children[0]->bytes, 1000.0);
  EXPECT_EQ(root.children[1]->flops, 0.0);

  const std::string tree = telemetry::CallProfile::this_thread().render();
  EXPECT_NE(tree.find("region.hot"), std::string::npos);
  EXPECT_NE(tree.find("GFLOP/s"), std::string::npos);
  EXPECT_NE(tree.find("0.020 FLOP/B]"), std::string::npos);
  // A work-only node reports its intensity but no rate.
  EXPECT_NE(tree.find("[untimed, 2.000 FLOP/B]"), std::string::npos);
}

// --- perf counters -----------------------------------------------------

TEST(PerfCounters, DegradesGracefullyAndKeepsWallClock) {
  perf::PerfCounterGroup counters;
  counters.start();
  for (volatile int i = 0; i < 100000; ++i) {
  }
  counters.stop();
  const perf::PerfCounts counts = counters.read();
  EXPECT_GT(counts.wall_ns, 0.0);
  if (!counts.available) {
    // Containers without perf_event access must say why.
    EXPECT_FALSE(counts.detail.empty());
    EXPECT_EQ(counts.ipc(), 0.0);
  } else {
    EXPECT_GT(counts.cycles, 0.0);
    EXPECT_GT(counts.instructions, 0.0);
  }
}

// --- trace counter tracks ----------------------------------------------

TEST(TraceCounters, EmitsCounterEventsWithValues) {
  auto& session = telemetry::TraceSession::instance();
  session.start();
  session.counter("perf.test_track", 42.5);
  session.counter("perf.test_track", 43.5);
  session.stop();
  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":42.5}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":43.5}"), std::string::npos);
  telemetry::set_enabled(false);
}

}  // namespace
