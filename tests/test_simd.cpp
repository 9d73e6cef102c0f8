#include "resipe/common/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "resipe/common/error.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/nn/data.hpp"
#include "resipe/nn/zoo.hpp"
#include "resipe/resipe/fast_mvm.hpp"
#include "resipe/resipe/network.hpp"
#include "resipe/resipe/spike_code.hpp"
#include "testing/approx.hpp"

namespace resipe {
namespace {

using resipe_core::FastMvm;
using resipe_core::SpikeCodec;
using simd::vdouble;

constexpr std::size_t kW = simd::native_lanes;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Ordered-integer ULP distance (the usual sign-magnitude -> two's
// complement mapping), infinite across sign/class mismatches.
std::uint64_t ulp_distance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return (std::isnan(a) && std::isnan(b))
               ? 0
               : std::numeric_limits<std::uint64_t>::max();
  }
  if (a == b) return 0;  // covers +0 == -0 and equal infinities
  if (std::isinf(a) || std::isinf(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  auto ordered = [](double x) {
    std::int64_t i;
    std::memcpy(&i, &x, sizeof i);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t ia = ordered(a);
  const std::int64_t ib = ordered(b);
  return ia > ib ? static_cast<std::uint64_t>(ia) - ib
                 : static_cast<std::uint64_t>(ib) - ia;
}

std::array<double, kW> to_array(vdouble v) {
  alignas(simd::kAlignment) std::array<double, kW> out;
  v.store(out.data());
  return out;
}

// ---------------------------------------------------------------------
// Elementary ops: each lane must match the scalar operation exactly.
// ---------------------------------------------------------------------

TEST(SimdOps, ArithmeticMatchesScalarPerLane) {
  Rng rng(101);
  alignas(simd::kAlignment) std::array<double, kW> a_raw, b_raw;
  for (std::size_t i = 0; i < kW; ++i) {
    a_raw[i] = rng.uniform(-10.0, 10.0);
    b_raw[i] = rng.uniform(0.5, 10.0);
  }
  const vdouble a = vdouble::load(a_raw.data());
  const vdouble b = vdouble::load(b_raw.data());

  const auto sum = to_array(a + b);
  const auto dif = to_array(a - b);
  const auto prd = to_array(a * b);
  const auto quo = to_array(a / b);
  const auto mn = to_array(simd::min(a, b));
  const auto mx = to_array(simd::max(a, b));
  for (std::size_t i = 0; i < kW; ++i) {
    EXPECT_EQ(sum[i], a_raw[i] + b_raw[i]);
    EXPECT_EQ(dif[i], a_raw[i] - b_raw[i]);
    EXPECT_EQ(prd[i], a_raw[i] * b_raw[i]);
    EXPECT_EQ(quo[i], a_raw[i] / b_raw[i]);
    EXPECT_EQ(mn[i], std::min(a_raw[i], b_raw[i]));
    EXPECT_EQ(mx[i], std::max(a_raw[i], b_raw[i]));
  }
}

TEST(SimdOps, ComparisonSelectAndMaskCount) {
  alignas(simd::kAlignment) std::array<double, kW> a_raw, b_raw;
  for (std::size_t i = 0; i < kW; ++i) {
    a_raw[i] = static_cast<double>(i);
    b_raw[i] = static_cast<double>(kW) / 2.0;
  }
  const vdouble a = vdouble::load(a_raw.data());
  const vdouble b = vdouble::load(b_raw.data());

  std::size_t expect_lt = 0, expect_band = 0;
  for (std::size_t i = 0; i < kW; ++i) {
    expect_lt += a_raw[i] < b_raw[i] ? 1 : 0;
    expect_band += (a_raw[i] >= 1.0 && a_raw[i] <= b_raw[i]) ? 1 : 0;
  }
  EXPECT_EQ(simd::mask_count(a < b), expect_lt);
  EXPECT_EQ(simd::mask_count((a >= vdouble(1.0)) & (a <= b)), expect_band);

  const auto sel = to_array(simd::select(a < b, vdouble(-1.0), a));
  for (std::size_t i = 0; i < kW; ++i) {
    EXPECT_EQ(sel[i], a_raw[i] < b_raw[i] ? -1.0 : a_raw[i]);
  }
}

TEST(SimdOps, PadToLanesRoundsUp) {
  EXPECT_EQ(simd::pad_to_lanes(0), 0u);
  EXPECT_EQ(simd::pad_to_lanes(1), kW);
  EXPECT_EQ(simd::pad_to_lanes(kW), kW);
  EXPECT_EQ(simd::pad_to_lanes(kW + 1), 2 * kW);
}

TEST(SimdOps, AlignedAllocatorAligns) {
  FastMvm::aligned_vector v(3 * kW + 1, 0.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % simd::kAlignment,
            0u);
}

// ---------------------------------------------------------------------
// Transcendentals: the vector exp/log must stay within the documented
// kTranscendentalUlp bound of libm, and honor IEEE edge cases.
// ---------------------------------------------------------------------

TEST(SimdTranscendentals, ExpWithinDocumentedUlpBound) {
  Rng rng(303);
  std::uint64_t worst = 0;
  alignas(simd::kAlignment) std::array<double, kW> raw;
  for (int trial = 0; trial < 4000; ++trial) {
    // Kernel-relevant range plus the full finite domain.
    const double lo = (trial % 2 == 0) ? -20.0 : -700.0;
    const double hi = (trial % 2 == 0) ? 20.0 : 700.0;
    for (double& v : raw) v = rng.uniform(lo, hi);
    const auto got = to_array(simd::exp(vdouble::load(raw.data())));
    for (std::size_t i = 0; i < kW; ++i) {
      worst = std::max(worst, ulp_distance(got[i], std::exp(raw[i])));
    }
  }
  EXPECT_LE(worst, static_cast<std::uint64_t>(simd::kTranscendentalUlp));
}

TEST(SimdTranscendentals, LogWithinDocumentedUlpBound) {
  Rng rng(404);
  std::uint64_t worst = 0;
  alignas(simd::kAlignment) std::array<double, kW> raw;
  for (int trial = 0; trial < 4000; ++trial) {
    for (std::size_t i = 0; i < kW; ++i) {
      switch (trial % 3) {
        case 0: raw[i] = rng.uniform(1e-12, 1.0); break;
        case 1: raw[i] = rng.uniform(1.0, 1e6); break;
        // The kernels call log(1 - v/v_s): exercise arguments near 1.
        default: raw[i] = 1.0 + rng.uniform(-0.5, 0.5); break;
      }
    }
    const auto got = to_array(simd::log(vdouble::load(raw.data())));
    for (std::size_t i = 0; i < kW; ++i) {
      worst = std::max(worst, ulp_distance(got[i], std::log(raw[i])));
    }
  }
  EXPECT_LE(worst, static_cast<std::uint64_t>(simd::kTranscendentalUlp));
}

TEST(SimdTranscendentals, EdgeCasesMatchIeee) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  alignas(simd::kAlignment) std::array<double, kW> raw;

  raw.fill(0.0);
  raw[0] = -kInf;
  if (kW > 1) raw[1] = kInf;
  if (kW > 2) raw[2] = qnan;
  auto e = to_array(simd::exp(vdouble::load(raw.data())));
  EXPECT_EQ(e[0], 0.0);
  if (kW > 1) EXPECT_EQ(e[1], kInf);
  if (kW > 2) EXPECT_TRUE(std::isnan(e[2]));

  raw.fill(1.0);
  raw[0] = 0.0;
  if (kW > 1) raw[1] = -1.0;
  if (kW > 2) raw[2] = kInf;
  if (kW > 3) raw[3] = qnan;
  auto l = to_array(simd::log(vdouble::load(raw.data())));
  EXPECT_EQ(l[0], -kInf);
  if (kW > 1) EXPECT_TRUE(std::isnan(l[1]));
  if (kW > 2) EXPECT_EQ(l[2], kInf);
  if (kW > 3) EXPECT_TRUE(std::isnan(l[3]));

  // exp(0) = 1 and log(1) = 0 exactly, on every lane.
  raw.fill(0.0);
  EXPECT_EQ(to_array(simd::exp(vdouble::load(raw.data())))[0], 1.0);
  raw.fill(1.0);
  EXPECT_EQ(to_array(simd::log(vdouble::load(raw.data())))[0], 0.0);
}

// simd::round is BIT-equal to std::round — not a ULP bound.  The codec
// quantization snap runs through it, and snapped spike times feed the
// event/dense bit-identity contracts, so every lane must reproduce
// libm's half-away-from-zero ties, sign of zero, and NaN/inf handling.
TEST(SimdTranscendentals, RoundBitEqualsStdRound) {
  Rng rng(505);
  alignas(simd::kAlignment) std::array<double, kW> raw;
  for (int trial = 0; trial < 4000; ++trial) {
    // Magnitudes from sub-ULP fractions up past 2^53 (all integers).
    const double scale = std::pow(10.0, rng.uniform(-3.0, 17.0));
    for (double& v : raw) v = rng.uniform(-1.0, 1.0) * scale;
    const auto got = to_array(simd::round(vdouble::load(raw.data())));
    for (std::size_t i = 0; i < kW; ++i) {
      EXPECT_EQ(ulp_distance(got[i], std::round(raw[i])), 0u)
          << "x = " << raw[i];
    }
  }
}

TEST(SimdTranscendentals, RoundEdgeCasesMatchIeee) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  // Ties away from zero, truncation toward it, exact integers,
  // signed zero, the 2^52 integer boundary, infinities and NaN.
  const double cases[] = {0.5,   -0.5, 2.5,  -2.5,  0.49999999999999994,
                          -0.3,  0.0,  -0.0, 1.0,   -7.0,
                          4.5e15, 9007199254740993.0, kInf, -kInf, qnan};
  alignas(simd::kAlignment) std::array<double, kW> raw;
  for (const double x : cases) {
    raw.fill(x);
    const auto got = to_array(simd::round(vdouble::load(raw.data())));
    for (std::size_t i = 0; i < kW; ++i) {
      EXPECT_EQ(ulp_distance(got[i], std::round(x)), 0u) << "x = " << x;
      if (!std::isnan(x)) {
        // Bit-for-bit including the sign of zero.
        EXPECT_EQ(std::signbit(got[i]), std::signbit(std::round(x)))
            << "x = " << x;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Runtime ISA control.
// ---------------------------------------------------------------------

TEST(SimdRuntime, ForceScalarGuardDisablesVectorPath) {
  const bool outer = simd::enabled();
  {
    simd::ForceScalarGuard guard;
    EXPECT_FALSE(simd::enabled());
    EXPECT_STREQ(simd::active_isa(), "scalar");
  }
  EXPECT_EQ(simd::enabled(), outer);
  EXPECT_STREQ(simd::compiled_isa(),
               simd::enabled() ? simd::active_isa() : simd::compiled_isa());
  EXPECT_NE(simd::march_flags(), nullptr);
}

// ---------------------------------------------------------------------
// FastMvm: construction validation and SIMD/scalar agreement.
// ---------------------------------------------------------------------

circuits::CircuitParams test_params() {
  return circuits::CircuitParams{};
}

FastMvm random_mvm(const circuits::CircuitParams& p, std::size_t rows,
                   std::size_t cols, Rng& rng) {
  std::vector<double> g(rows * cols);
  for (double& v : g) v = rng.uniform(1e-6, 40e-6);
  return FastMvm(p, rows, cols, std::move(g));
}

std::vector<double> random_inputs(const SpikeCodec& codec, std::size_t rows,
                                  Rng& rng) {
  std::vector<double> t(rows);
  for (double& v : t) {
    // Mix of real spike times and silent lines.
    v = rng.uniform(0.0, 1.0) < 0.15
            ? FastMvm::kNoSpike
            : codec.encode(rng.uniform(0.0, 1.2)).arrival_time;
  }
  return t;
}

TEST(FastMvmValidation, FlatConstructorRejectsZeroDims) {
  const auto p = test_params();
  EXPECT_THROW(FastMvm(p, 0, 4, {}), Error);
  EXPECT_THROW(FastMvm(p, 4, 0, {}), Error);
  EXPECT_THROW(FastMvm(p, 0, 0, {}), Error);
}

TEST(FastMvmValidation, CrossbarPathRejectsZeroDims) {
  // Crossbar itself refuses zero dims, so the FastMvm guard on that
  // path is unreachable through a real Crossbar — pin the upstream
  // check so a relaxation there would not silently reach FastMvm.
  EXPECT_THROW(crossbar::Crossbar(0, 4, device::ReramSpec::nn_mapping()),
               Error);
  EXPECT_THROW(crossbar::Crossbar(4, 0, device::ReramSpec::nn_mapping()),
               Error);
}

// SIMD output vs the scalar reference on deliberately awkward shapes:
// 1x1 (one real lane), 3x5 (sub-width), 63x65 (one short of / one past
// a pad boundary), 27x16 (CNN-3's first conv) and 8x32 (a
// partial row window), through mvm_times and through mvm_times_batch
// at sample counts that fill register blocks and leave partial ones.
// Both widths sum each column's rows in the same order with the same
// operations, so under kLinear, where no transcendental runs, the two
// paths agree bit for bit.  Under the exact model they differ only by
// the polynomial exp/log, so a flat 1e-9 relative tolerance is
// generous; silence must agree exactly except where the scalar time
// sits within that tolerance of the slice boundary.
TEST(FastMvmSimd, EdgeShapesMatchScalarReference) {
  Rng rng(505);
  const struct { std::size_t rows, cols; } shapes[] = {
      {1, 1}, {3, 5}, {63, 65}, {27, 16}, {8, 32}};
  for (const auto model :
       {circuits::TransferModel::kExact, circuits::TransferModel::kLinear}) {
    auto p = test_params();
    p.model = model;
    const bool linear = model == circuits::TransferModel::kLinear;
    const SpikeCodec codec(p);
    for (const auto& shape : shapes) {
      const FastMvm mvm = random_mvm(p, shape.rows, shape.cols, rng);
      for (const std::size_t n : {1, 3, 4, 5, 9}) {
        std::vector<double> t_in(n * shape.rows);
        for (std::size_t s = 0; s < n; ++s) {
          const auto one = random_inputs(codec, shape.rows, rng);
          std::copy(one.begin(), one.end(), t_in.begin() + s * shape.rows);
        }
        for (const bool batch : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << (linear ? "linear " : "exact ") << shape.rows
                       << "x" << shape.cols << " n=" << n
                       << (batch ? " mvm_times_batch" : " mvm_times"));
          const auto run = [&] {
            std::vector<double> out(n * shape.cols, -1.0);
            if (batch) {
              FastMvm::BatchScratch scratch;
              mvm.mvm_times_batch(t_in, n, out, scratch);
            }
            for (std::size_t s = 0; !batch && s < n; ++s) {
              mvm.mvm_times(
                  std::span<const double>(t_in).subspan(s * shape.rows,
                                                        shape.rows),
                  std::span<double>(out).subspan(s * shape.cols,
                                                 shape.cols));
            }
            return out;
          };
          const std::vector<double> vec = run();
          std::vector<double> ref;
          {
            simd::ForceScalarGuard guard;
            ref = run();
          }
          for (std::size_t i = 0; i < vec.size(); ++i) {
            if (linear) {
              EXPECT_EQ(std::memcmp(&vec[i], &ref[i], sizeof(double)), 0)
                  << "output " << i << ": " << vec[i] << " vs " << ref[i];
            } else if (std::isinf(vec[i]) != std::isinf(ref[i])) {
              const double finite = std::isinf(vec[i]) ? ref[i] : vec[i];
              EXPECT_NEAR(finite, p.slice_length, 1e-9 * p.slice_length)
                  << "silence flip away from the slice boundary, output "
                  << i;
            } else if (!std::isinf(ref[i])) {
              RESIPE_EXPECT_CLOSE(vec[i], ref[i], 1e-9, 1e-20);
            }
          }
        }
      }
    }
  }
}

TEST(FastMvmSimd, BatchMatchesSingleSampleBitwise) {
  const auto p = test_params();
  const SpikeCodec codec(p);
  Rng rng(606);
  const std::size_t rows = 63, cols = 65, n = 5;
  const FastMvm mvm = random_mvm(p, rows, cols, rng);

  std::vector<double> t_in(n * rows);
  for (std::size_t s = 0; s < n; ++s) {
    const auto one = random_inputs(codec, rows, rng);
    std::copy(one.begin(), one.end(), t_in.begin() + s * rows);
  }
  std::vector<double> batch_out(n * cols, -1.0);
  FastMvm::BatchScratch scratch;
  mvm.mvm_times_batch(t_in, n, batch_out, scratch);

  std::vector<double> single(cols);
  for (std::size_t s = 0; s < n; ++s) {
    mvm.mvm_times(std::span<const double>(t_in).subspan(s * rows, rows),
                  single);
    for (std::size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(batch_out[s * cols + c], single[c])
          << "sample " << s << " col " << c;
    }
  }
}

TEST(FastMvmSimd, BatchHandlesEmptyAndSingleSample) {
  const auto p = test_params();
  const SpikeCodec codec(p);
  Rng rng(707);
  const FastMvm mvm = random_mvm(p, 7, 9, rng);
  FastMvm::BatchScratch scratch;

  // n == 0: no reads, no writes.
  std::vector<double> out0;
  mvm.mvm_times_batch({}, 0, out0, scratch);

  // n == 1 is bitwise the single-sample path.
  const std::vector<double> t_in = random_inputs(codec, 7, rng);
  std::vector<double> out1(9, -1.0), single(9, -2.0);
  mvm.mvm_times_batch(t_in, 1, out1, scratch);
  mvm.mvm_times(t_in, single);
  for (std::size_t c = 0; c < 9; ++c) EXPECT_EQ(out1[c], single[c]);
}

// The same agreement must hold with the scalar reference *batch* path
// (which tiles differently from the scalar single-sample loop only in
// iteration order, never in arithmetic).
TEST(FastMvmSimd, ScalarBatchBitwiseEqualsScalarSingle) {
  const auto p = test_params();
  const SpikeCodec codec(p);
  Rng rng(808);
  const std::size_t rows = 31, cols = 17, n = 4;
  const FastMvm mvm = random_mvm(p, rows, cols, rng);
  std::vector<double> t_in(n * rows);
  for (double& v : t_in) v = codec.encode(rng.uniform(0.0, 1.0)).arrival_time;

  simd::ForceScalarGuard guard;
  std::vector<double> batch_out(n * cols);
  FastMvm::BatchScratch scratch;
  mvm.mvm_times_batch(t_in, n, batch_out, scratch);
  std::vector<double> single(cols);
  for (std::size_t s = 0; s < n; ++s) {
    mvm.mvm_times(std::span<const double>(t_in).subspan(s * rows, rows),
                  single);
    for (std::size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(batch_out[s * cols + c], single[c]);
    }
  }
}

// ---------------------------------------------------------------------
// Spike-codec batch kernels.
// ---------------------------------------------------------------------

TEST(SpikeCodecBatch, EncodeTimesMatchesElementwiseEncode) {
  const auto p = test_params();
  Rng rng(909);
  for (const bool quantize : {false, true}) {
    const SpikeCodec codec(p, quantize);
    std::vector<double> x(kW * 4 + 3);
    for (double& v : x) v = rng.uniform(-0.2, 1.3);  // includes clipping
    std::vector<double> batch(x.size());
    codec.encode_times(x, batch);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double ref = codec.encode(x[i]).arrival_time;
      if (quantize) {
        // A near-tie at a clock boundary may snap one grid step apart.
        EXPECT_LE(std::abs(batch[i] - ref), p.clock_period * (1.0 + 1e-12));
      } else {
        RESIPE_EXPECT_CLOSE(batch[i], ref, 1e-10, 1e-18);
      }
    }
    // The scalar path is the element-wise loop, bit for bit.
    simd::ForceScalarGuard guard;
    std::vector<double> scalar(x.size());
    codec.encode_times(x, scalar);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(scalar[i], codec.encode(x[i]).arrival_time);
    }
  }
}

TEST(SpikeCodecBatch, DecodeValuesMatchesElementwiseDecode) {
  const auto p = test_params();
  const SpikeCodec codec(p);
  Rng rng(1010);
  std::vector<double> t(kW * 4 + 5);
  for (std::size_t i = 0; i < t.size(); ++i) {
    switch (i % 4) {
      case 0: t[i] = kInf; break;                              // silent
      case 1: t[i] = -1e-9; break;                             // invalid
      case 2: t[i] = rng.uniform(0.0, p.slice_length); break;  // in range
      default: t[i] = codec.t_full() * rng.uniform(0.9, 1.4);  // clamped
    }
  }
  std::vector<double> batch(t.size());
  codec.decode_values(t, batch);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double ref = codec.decode(circuits::Spike::at(t[i]));
    RESIPE_EXPECT_CLOSE(batch[i], ref, 1e-12, 1e-15);
  }

  simd::ForceScalarGuard guard;
  std::vector<double> scalar(t.size());
  codec.decode_values(t, scalar);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(scalar[i], codec.decode(circuits::Spike::at(t[i])));
  }
}

// ---------------------------------------------------------------------
// End to end: SIMD vs scalar through a lowered network, across worker
// counts.  SIMD logits must be bit-identical at any thread count (the
// parallel runtime is order-deterministic), and the scalar/SIMD pair
// must agree on every clear-margin argmax.  The cases cover the dense
// lowering, a conv lowering, and fault-aware programming whose
// remapped spare slots send column recovery through its gather.
// ---------------------------------------------------------------------

TEST(NetworkSimd, ScalarVsSimdAgreementAcrossThreads) {
  Rng model_rng(0xBEEF);
  nn::Sequential mlp = nn::build_benchmark(nn::BenchmarkNet::kMlp1,
                                           model_rng);
  nn::Sequential cnn("simd-cnn");
  cnn.emplace<nn::Conv2d>(1, 3, 3, 2, 1, model_rng);
  cnn.emplace<nn::ReLU>();
  cnn.emplace<nn::Flatten>();
  cnn.emplace<nn::Dense>(3 * 14 * 14, 10, model_rng);
  Rng data_rng(11);
  const nn::Dataset batch = nn::synthetic_digits(12, data_rng);

  resipe_core::EngineConfig faulty;
  faulty.reliability.enabled = true;
  faulty.reliability.faults.stuck_lrs_rate = 0.01;
  faulty.reliability.faults.stuck_hrs_rate = 0.01;
  const struct {
    const char* name;
    nn::Sequential* model;
    resipe_core::EngineConfig config;
  } cases[] = {{"mlp", &mlp, {}}, {"conv", &cnn, {}},
               {"mlp, remapped slots", &mlp, faulty}};

  for (const auto& tc : cases) {
    SCOPED_TRACE(tc.name);
    const resipe_core::ResipeNetwork net(*tc.model, tc.config,
                                         batch.images);
    if (tc.config.reliability.enabled) {
      ASSERT_GT(net.reliability_stats().columns_remapped, 0u);
    }

    const auto logits = [&](bool force_scalar) {
      std::optional<simd::ForceScalarGuard> guard;
      if (force_scalar) guard.emplace();
      const nn::Tensor y = net.forward(batch.images);
      return std::vector<double>(y.data().begin(), y.data().end());
    };

    set_default_threads(1);
    const std::vector<double> simd_ref = logits(false);
    const std::vector<double> scalar_ref = logits(true);

    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      set_default_threads(threads);
      EXPECT_EQ(logits(false), simd_ref) << threads << " threads (simd)";
      EXPECT_EQ(logits(true), scalar_ref) << threads << " threads (scalar)";
    }
    set_default_threads(0);

    const std::size_t classes = scalar_ref.size() / 12;
    ASSERT_GT(classes, 1u);
    for (std::size_t s = 0; s < 12; ++s) {
      const double* sc = scalar_ref.data() + s * classes;
      const double* vc = simd_ref.data() + s * classes;
      std::size_t best = 0;
      double scale = 0.0;
      for (std::size_t c = 0; c < classes; ++c) {
        if (sc[c] > sc[best]) best = c;
        scale = std::max(scale, std::abs(sc[c]));
      }
      double margin = kInf;
      for (std::size_t c = 0; c < classes; ++c) {
        if (c != best) margin = std::min(margin, sc[best] - sc[c]);
      }
      if (margin <= 1e-6 * (scale + 1.0)) continue;  // genuinely ambiguous
      const std::size_t vbest =
          std::max_element(vc, vc + classes) - vc;
      EXPECT_EQ(vbest, best) << "argmax flip on sample " << s;
    }
  }
}

}  // namespace
}  // namespace resipe
