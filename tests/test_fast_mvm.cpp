#include "resipe/resipe/fast_mvm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
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

// Output times as mvm_voltages_batch leaves them: n rows at the padded
// stride, drawn over the slice, with `silent` slots at kNoSpike in every
// sample and the padding lanes holding a time too.
std::vector<double> spike_rows(const FastMvm& mvm, std::size_t n,
                               std::span<const std::size_t> silent,
                               Rng& rng) {
  const double slice = mvm.params().slice_length;
  std::vector<double> t(n * mvm.padded_cols());
  for (double& v : t) v = rng.uniform(0.0, slice);
  for (std::size_t s = 0; s < n; ++s) {
    for (const std::size_t slot : silent) {
      t[s * mvm.padded_cols() + slot] = FastMvm::kNoSpike;
    }
  }
  return t;
}

// The read-back of n samples in one call against n one-sample calls,
// bit for bit over the data columns, every sum of sample s starting from
// 1e-6 * (s + 1); returns the batched sums.
std::vector<double> batch_against_single(const FastMvm& mvm,
                                         std::span<const double> t,
                                         std::size_t n,
                                         std::span<const std::size_t> map,
                                         std::size_t cols) {
  const std::size_t rec_stride = simd::pad_to_lanes(cols) + 3;
  std::vector<double> batch(n * rec_stride);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i] = 1e-6 * static_cast<double>(i / rec_stride + 1);
  }
  const std::vector<double> start = batch;
  mvm.add_current_sums(t, n, map, batch, rec_stride, cols);
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> single(start.begin() + s * rec_stride,
                               start.begin() + (s + 1) * rec_stride);
    mvm.add_current_sums(t.subspan(s * mvm.padded_cols(), mvm.padded_cols()),
                         1, map, single, rec_stride, cols);
    for (std::size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(std::memcmp(&batch[s * rec_stride + c], &single[c],
                            sizeof(double)),
                0)
          << "n " << n << ", sample " << s << ", col " << c << " of "
          << cols;
    }
  }
  return batch;
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
  const std::vector<std::size_t> silent{2};
  const std::vector<std::size_t> slot_of_col{10, 3, 7, 2, 4, 8, 1, 5, 0};
  const std::size_t cols = slot_of_col.size();
  const std::size_t stride = mvm.padded_cols();
  const double eps = std::numeric_limits<double>::epsilon();

  for (const std::size_t n : {1, 3, 4, 5, 9}) {
    const std::vector<double> t = spike_rows(mvm, n, silent, rng);
    // The scalar path is the reference expression, bit for bit, and
    // adds to what rec already holds.
    std::vector<double> scalar;
    {
      const simd::ForceScalarGuard guard;
      scalar = batch_against_single(mvm, t, n, slot_of_col, cols);
    }
    const std::size_t rec_stride = scalar.size() / n;
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t slot = slot_of_col[c];
        const double t_s = t[s * stride + slot];
        const double ts = t_s == FastMvm::kNoSpike ? p.slice_length : t_s;
        const double before = 1e-6 * static_cast<double>(s + 1);
        const double expect =
            mvm.k(slot) > 0.0
                ? before + p.ramp_voltage(ts) * mvm.g_total(slot) / mvm.k(slot)
                : before;
        RESIPE_EXPECT_ULP(scalar[s * rec_stride + c], expect, 0)
            << "n " << n << ", sample " << s << ", col " << c;
      }
    }

    // The native path gathers through the map: each data column equals
    // its slot's lane of an identity-mapped pass over every slot, bit
    // for bit, and stays within the polynomial exp's error of the scalar
    // reference.
    const std::vector<double> vec =
        batch_against_single(mvm, t, n, slot_of_col, cols);
    const std::vector<double> identity =
        batch_against_single(mvm, t, n, {}, slots);
    const std::size_t id_stride = identity.size() / n;
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t slot = slot_of_col[c];
        RESIPE_EXPECT_ULP(vec[s * rec_stride + c],
                          identity[s * id_stride + slot], 0)
            << "n " << n << ", sample " << s << ", col " << c;
        const double scale =
            mvm.k(slot) > 0.0 ? p.v_s * mvm.g_total(slot) / mvm.k(slot) : 0.0;
        EXPECT_NEAR(vec[s * rec_stride + c], scalar[s * rec_stride + c],
                    2.0 * simd::kTranscendentalUlp * eps * scale)
            << "n " << n << ", sample " << s << ", col " << c;
      }
    }
  }

  // Identity-mapped blocks of every width up to two vectors and one
  // column, plus LeNet's 12 and 13, with a programmed spare and an
  // unprogrammed slot past the data columns and a silent and an
  // unprogrammed data column: whole vectors in place, tail included,
  // match one-sample calls natively and on the scalar path.
  std::vector<std::size_t> widths;
  for (std::size_t c = 1; c <= 2 * simd::native_lanes + 1; ++c) {
    widths.push_back(c);
  }
  widths.insert(widths.end(), {12, 13});
  for (const std::size_t width : widths) {
    const std::size_t block_slots = width + 2;
    std::vector<double> gb(rows * block_slots, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c + 1 < block_slots; ++c) {
        if (width > 2 && c == width / 2) continue;  // unprogrammed
        gb[r * block_slots + c] = rng.uniform(1e-6, 50e-6);
      }
    }
    const FastMvm block(p, rows, block_slots, gb);
    const std::vector<std::size_t> quiet{0};
    for (const bool force_scalar : {false, true}) {
      std::optional<simd::ForceScalarGuard> guard;
      if (force_scalar) guard.emplace();
      for (const std::size_t n : {1, 3, 4, 5, 9}) {
        const std::vector<double> t = spike_rows(block, n, quiet, rng);
        batch_against_single(block, t, n, {}, width);
      }
    }
  }

  // Spans and strides that do not hold the rows throw.
  const std::vector<double> t = spike_rows(mvm, 2, silent, rng);
  const std::size_t rec_stride = simd::pad_to_lanes(cols);
  std::vector<double> rec(2 * rec_stride);
  EXPECT_NO_THROW(
      mvm.add_current_sums(t, 2, slot_of_col, rec, rec_stride, cols));
  const std::span<const double> t_short(t.data(), t.size() - 1);
  const std::span<double> rec_short(rec.data(), rec.size() - 1);
  EXPECT_THROW(
      mvm.add_current_sums(t_short, 2, slot_of_col, rec, rec_stride, cols),
      Error);
  EXPECT_THROW(
      mvm.add_current_sums(t, 2, slot_of_col, rec_short, rec_stride, cols),
      Error);
  EXPECT_THROW(
      mvm.add_current_sums(t, 1, slot_of_col, rec, rec_stride - 1, cols),
      Error);
  EXPECT_THROW(
      mvm.add_current_sums(t, 1, slot_of_col, rec, rec_stride, cols - 1),
      Error);
  const std::vector<std::size_t> off_the_end{0, 1, slots};
  EXPECT_THROW(mvm.add_current_sums(t, 1, off_the_end, rec, rec_stride, 3),
               Error);
  EXPECT_THROW(mvm.add_current_sums(t, 1, {}, rec,
                                    simd::pad_to_lanes(slots + 1), slots + 1),
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
