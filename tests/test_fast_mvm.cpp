#include "resipe/resipe/fast_mvm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "resipe/common/error.hpp"
#include "resipe/resipe/spike_code.hpp"
#include "resipe/resipe/tile.hpp"
#include "testing/approx.hpp"

namespace resipe::resipe_core {
namespace {

using circuits::CircuitParams;
using circuits::Spike;
using circuits::TransferModel;

device::ReramSpec clean_spec() {
  device::ReramSpec spec = device::ReramSpec::nn_mapping();
  spec.write_verify_tolerance = 0.0;
  spec.variation_sigma = 0.0;
  return spec;
}

TEST(FastMvm, MatchesHandComputedSingleColumn) {
  const CircuitParams p;
  // Two rows, G = 20 uS and 5 uS.
  FastMvm mvm(p, 2, 1, {20e-6, 5e-6});
  RESIPE_EXPECT_ULP(mvm.g_total(0), 25e-6, 1);
  const double tau_cog = p.c_cog / 25e-6;
  RESIPE_EXPECT_REL(mvm.k(0), 1.0 - std::exp(-p.comp_stage / tau_cog), 1e-12);

  const std::vector<double> t_in{30e-9, 60e-9};
  std::vector<double> t_out(1, 0.0);
  mvm.mvm_times(t_in, t_out);

  const double v1 = 1.0 - std::exp(-30e-9 / p.tau_gd());
  const double v2 = 1.0 - std::exp(-60e-9 / p.tau_gd());
  const double veq = (v1 * 20e-6 + v2 * 5e-6) / 25e-6;
  const double vout = veq * mvm.k(0);
  const double expect = -p.tau_gd() * std::log(1.0 - vout);
  RESIPE_EXPECT_REL(t_out[0], expect, 1e-12);
}

TEST(FastMvm, AddCurrentSumsReadsTheTrimThroughTheSlotMap) {
  // 11 slots, the last one unprogrammed (k = 0).  Nine data columns
  // placed out of order, one on a silent slot and one on the
  // unprogrammed slot; nine is no multiple of any vector width, so the
  // vector path stages a tail.
  const CircuitParams p;
  const std::size_t rows = 3, slots = 11;
  Rng rng(7);
  std::vector<double> g(rows * slots, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c + 1 < slots; ++c) {
      g[r * slots + c] = rng.uniform(1e-6, 50e-6);
    }
  }
  const FastMvm mvm(p, rows, slots, g);
  ASSERT_EQ(mvm.k(slots - 1), 0.0);
  std::vector<double> t(slots);
  for (double& v : t) v = rng.uniform(0.0, p.slice_length);
  t[2] = FastMvm::kNoSpike;
  const std::vector<std::size_t> slot_of_col{10, 3, 7, 2, 4, 8, 1, 5, 0};
  const std::size_t cols = slot_of_col.size();

  // The scalar path is the reference expression, bit for bit, and adds
  // to what rec already holds.
  std::vector<double> scalar(cols, 1e-6);
  mvm.add_current_sums(t, slot_of_col, scalar, false);
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t s = slot_of_col[c];
    const double ts = t[s] == FastMvm::kNoSpike ? p.slice_length : t[s];
    const double expect =
        mvm.k(s) > 0.0 ? 1e-6 + p.ramp_voltage(ts) * mvm.g_total(s) / mvm.k(s)
                       : 1e-6;
    RESIPE_EXPECT_ULP(scalar[c], expect, 0) << "col " << c;
  }

  // The vector path gathers through the map: each data column equals
  // its slot's lane of an identity-mapped pass, bit for bit, and stays
  // within the polynomial exp's error of the scalar reference.
  std::vector<double> vec(cols, 1e-6);
  std::vector<double> identity(slots, 1e-6);
  mvm.add_current_sums(t, slot_of_col, vec, true);
  mvm.add_current_sums(t, {}, identity, true);
  const double eps = std::numeric_limits<double>::epsilon();
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t s = slot_of_col[c];
    RESIPE_EXPECT_ULP(vec[c], identity[s], 0) << "col " << c;
    const double scale =
        mvm.k(s) > 0.0 ? p.v_s * mvm.g_total(s) / mvm.k(s) : 0.0;
    EXPECT_NEAR(vec[c], scalar[c],
                2.0 * simd::kTranscendentalUlp * eps * scale)
        << "col " << c;
  }

  EXPECT_THROW(mvm.add_current_sums(std::span<const double>(t).first(10),
                                    {}, identity),
               Error);
  EXPECT_THROW(mvm.add_current_sums(t, slot_of_col,
                                    std::span<double>(vec).first(8)),
               Error);
}

TEST(FastMvm, AgreesWithFaithfulTileModel) {
  const CircuitParams p;
  const device::ReramSpec spec = clean_spec();
  ResipeTile tile(p, 16, 8, spec);
  Rng rng(21);
  std::vector<double> g(16 * 8);
  for (double& v : g) v = rng.uniform(spec.g_min(), spec.g_max());
  tile.program(g, rng);

  const FastMvm fast(p, tile.crossbar());
  const SpikeCodec codec(p);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Spike> spikes(16);
    std::vector<double> t_in(16);
    for (std::size_t i = 0; i < 16; ++i) {
      spikes[i] = codec.encode(rng.uniform(0.0, 1.0));
      t_in[i] = spikes[i].arrival_time;
    }
    const auto tile_out = tile.execute(spikes);
    std::vector<double> fast_out(8, 0.0);
    fast.mvm_times(t_in, fast_out);
    for (std::size_t c = 0; c < 8; ++c) {
      if (tile_out[c].valid()) {
        RESIPE_EXPECT_REL(fast_out[c], tile_out[c].arrival_time, 1e-12)
            << "trial " << trial << " col " << c;
      } else {
        EXPECT_EQ(fast_out[c], FastMvm::kNoSpike);
      }
    }
  }
}

TEST(FastMvm, SilentInputContributesNothing) {
  const CircuitParams p;
  FastMvm mvm(p, 2, 1, {20e-6, 20e-6});
  std::vector<double> t_out_a(1), t_out_b(1);
  // One line silent vs one line at t=0: t=0 means V=0, identical to
  // silent electrically.
  mvm.mvm_times(std::vector<double>{50e-9, FastMvm::kNoSpike}, t_out_a);
  mvm.mvm_times(std::vector<double>{50e-9, 0.0}, t_out_b);
  // t = 0 and "silent" both decode to exactly 0 V, so the two MVMs run
  // on bit-identical wordline vectors.
  RESIPE_EXPECT_ULP(t_out_a[0], t_out_b[0], 0);
}

TEST(FastMvm, ZeroColumnFiresImmediately) {
  const CircuitParams p;
  FastMvm mvm(p, 2, 1, {0.0, 0.0});
  std::vector<double> t_out(1);
  mvm.mvm_times(std::vector<double>{50e-9, 50e-9}, t_out);
  EXPECT_DOUBLE_EQ(t_out[0], p.comparator_delay);
}

TEST(FastMvm, LinearModeMatchesEq6ForSmallConductance) {
  CircuitParams p = CircuitParams::linear_regime();
  p.model = TransferModel::kLinear;
  // Tiny conductance keeps the linear k = dt*G/Ccog small.
  const double g = 1e-6;
  FastMvm mvm(p, 1, 1, {g});
  const std::vector<double> t_in{50e-9};
  std::vector<double> t_out(1), t_ideal(1);
  mvm.mvm_times(t_in, t_out);
  mvm.ideal_times(t_in, t_ideal);
  RESIPE_EXPECT_REL(t_out[0], t_ideal[0], 1e-12);
  RESIPE_EXPECT_REL(t_ideal[0], p.linear_gain() * 50e-9 * g, 1e-12);
}

TEST(FastMvm, SharedRampCancellationAtSaturation) {
  // Single input, heavy conductance: k -> 1, so the exact model returns
  // t_out == t_in — the Sec. III-D cancellation.
  const CircuitParams p;
  FastMvm mvm(p, 1, 1, {3.2e-3});
  for (double t : {10e-9, 40e-9, 80e-9}) {
    std::vector<double> t_out(1);
    mvm.mvm_times(std::vector<double>{t}, t_out);
    // k = 1 - exp(-32) leaves a ~1e-14 relative residue in v_out, so
    // the cancellation is approximate, not bit-exact.
    RESIPE_EXPECT_REL(t_out[0], t, 1e-9) << "t=" << t;
  }
}

TEST(FastMvm, OutputsBeyondSliceAreSilent) {
  // Force a crossing beyond the slice: a comparator offset above the
  // reachable ramp within the slice cannot fire.
  CircuitParams p = CircuitParams::linear_regime();  // tau = 1 us
  // ramp reaches 0.1 Vs at slice end; an output needing more is silent.
  FastMvm mvm(p, 1, 1, {3.2e-3});  // k ~ 1 -> Vout ~ Vin
  std::vector<double> t_out(1);
  // Input at full window -> Vin ~ 0.099 Vs -> crossing just inside.
  mvm.mvm_times(std::vector<double>{99e-9}, t_out);
  EXPECT_NE(t_out[0], FastMvm::kNoSpike);
  // With comparator offset pushing the threshold past slice reach:
  p.comparator_offset = 0.05;
  FastMvm mvm2(p, 1, 1, {3.2e-3});
  mvm2.mvm_times(std::vector<double>{99e-9}, t_out);
  EXPECT_EQ(t_out[0], FastMvm::kNoSpike);
}

TEST(FastMvm, RejectsSizeMismatch) {
  const CircuitParams p;
  FastMvm mvm(p, 2, 1, {1e-6, 1e-6});
  std::vector<double> t_out(1);
  EXPECT_THROW(mvm.mvm_times(std::vector<double>{1e-9}, t_out), Error);
  EXPECT_THROW(FastMvm(p, 2, 2, {1e-6}), Error);
}

TEST(FastMvm, MonotoneInInputTime) {
  const CircuitParams p;
  FastMvm mvm(p, 4, 1, {5e-6, 5e-6, 5e-6, 5e-6});
  double prev = -1.0;
  for (double t = 0.0; t <= 90e-9; t += 5e-9) {
    std::vector<double> t_out(1);
    mvm.mvm_times(std::vector<double>{t, 20e-9, 40e-9, 60e-9}, t_out);
    ASSERT_NE(t_out[0], FastMvm::kNoSpike);
    EXPECT_GE(t_out[0], prev);
    prev = t_out[0];
  }
}

}  // namespace
}  // namespace resipe::resipe_core
