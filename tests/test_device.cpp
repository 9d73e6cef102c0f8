#include "resipe/device/reram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "resipe/common/error.hpp"
#include "resipe/common/stats.hpp"

namespace resipe::device {
namespace {

TEST(ReramSpec, PresetsAreValidAndMatchPaper) {
  const ReramSpec ch = ReramSpec::characterization();
  EXPECT_NO_THROW(ch.validate());
  EXPECT_DOUBLE_EQ(ch.r_lrs, 10e3);
  EXPECT_DOUBLE_EQ(ch.r_hrs, 1e6);

  const ReramSpec nn = ReramSpec::nn_mapping();
  EXPECT_NO_THROW(nn.validate());
  EXPECT_DOUBLE_EQ(nn.r_lrs, 50e3);
  // The Sec. III-D condition: a 32-cell column stays below 1.6 mS.
  EXPECT_LE(32.0 * nn.g_max(), 1.6e-3);
}

TEST(ReramSpec, ValidateRejectsBadCorners) {
  ReramSpec s;
  s.r_lrs = -1.0;
  EXPECT_THROW(s.validate(), Error);
  s = ReramSpec{};
  s.r_hrs = s.r_lrs;  // HRS must exceed LRS
  EXPECT_THROW(s.validate(), Error);
  s = ReramSpec{};
  s.levels = 1;
  EXPECT_THROW(s.validate(), Error);
  s = ReramSpec{};
  s.variation_sigma = -0.1;
  EXPECT_THROW(s.validate(), Error);
}

TEST(ConductanceQuantizer, EndpointsMapToWindow) {
  const ReramSpec spec = ReramSpec::characterization();
  const ConductanceQuantizer q(spec);
  EXPECT_DOUBLE_EQ(q.weight_to_g(0.0), spec.g_min());
  EXPECT_DOUBLE_EQ(q.weight_to_g(1.0), spec.g_max());
  EXPECT_DOUBLE_EQ(q.weight_to_g(-1.0), spec.g_min());  // clamped
  EXPECT_DOUBLE_EQ(q.weight_to_g(2.0), spec.g_max());   // clamped
}

TEST(ConductanceQuantizer, RoundTripWithinHalfStep) {
  const ReramSpec spec = ReramSpec::characterization();
  const ConductanceQuantizer q(spec);
  for (double w = 0.0; w <= 1.0; w += 0.03) {
    const double g = q.weight_to_g_quantized(w);
    EXPECT_NEAR(g, q.weight_to_g(w), q.step() / 2.0 + 1e-18);
    EXPECT_NEAR(q.g_to_weight(g), w, 0.5 / (spec.levels - 1) + 1e-12);
  }
}

TEST(ConductanceQuantizer, LevelsAreDiscrete) {
  ReramSpec spec = ReramSpec::characterization();
  spec.levels = 4;
  const ConductanceQuantizer q(spec);
  // Only 4 distinct values possible.
  std::vector<double> seen;
  for (double w = 0.0; w <= 1.0001; w += 0.01) {
    const double g = q.weight_to_g_quantized(w);
    bool found = false;
    for (double s : seen) {
      if (std::abs(s - g) < 1e-18) found = true;
    }
    if (!found) seen.push_back(g);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ReramCell, DeterministicProgramWithoutNoise) {
  ReramSpec spec = ReramSpec::characterization();
  spec.write_verify_tolerance = 0.0;
  spec.variation_sigma = 0.0;
  Rng rng(1);
  ReramCell cell;
  cell.program(spec, 5e-5, rng);
  const ConductanceQuantizer q(spec);
  EXPECT_NEAR(cell.programmed_g(), q.weight_to_g_quantized(
                                       q.g_to_weight(5e-5)),
              1e-18);
  EXPECT_DOUBLE_EQ(cell.target_g(), 5e-5);
}

TEST(ReramCell, TargetClampedToWindow) {
  ReramSpec spec = ReramSpec::characterization();
  spec.write_verify_tolerance = 0.0;
  Rng rng(1);
  ReramCell cell;
  cell.program(spec, 1.0, rng);  // way above G_max
  EXPECT_DOUBLE_EQ(cell.target_g(), spec.g_max());
  cell.program(spec, 0.0, rng);  // below G_min
  EXPECT_DOUBLE_EQ(cell.target_g(), spec.g_min());
}

TEST(ReramCell, ProgramRejectsNonFiniteTargets) {
  const ReramSpec spec = ReramSpec::characterization();
  Rng rng(1);
  ReramCell cell;
  EXPECT_THROW(
      cell.program(spec, std::numeric_limits<double>::quiet_NaN(), rng),
      Error);
  EXPECT_THROW(
      cell.program(spec, std::numeric_limits<double>::infinity(), rng),
      Error);
  ProgramBudget budget;
  EXPECT_THROW(cell.program_verified(
                   spec, -std::numeric_limits<double>::infinity(), rng,
                   budget),
               Error);
}

TEST(ReramCell, WriteVerifyResidueStaysWithinWindow) {
  // The folded write-verify model accepts only residues inside the
  // verify window; no draw may escape +-tolerance around the level.
  ReramSpec spec = ReramSpec::characterization();
  spec.write_verify_tolerance = 0.05;
  spec.variation_sigma = 0.0;
  Rng rng(3);
  const ConductanceQuantizer q(spec);
  const double level = q.weight_to_g_quantized(q.g_to_weight(5e-5));
  ReramCell cell;
  for (int i = 0; i < 5000; ++i) {
    cell.program(spec, 5e-5, rng);
    EXPECT_LE(std::abs(cell.programmed_g() - level) / level,
              spec.write_verify_tolerance + 1e-12);
  }
}

TEST(ReramCell, ExtremeVariationIsClampedToPhysicalEnvelope) {
  // Heavy-tailed variation draws must terminate inside the physical
  // envelope [0, 2 G_max] rather than producing negative or runaway
  // conductances.
  ReramSpec spec = ReramSpec::characterization();
  spec.write_verify_tolerance = 0.0;
  spec.variation_sigma = 3.0;
  Rng rng(7);
  ReramCell cell;
  for (int i = 0; i < 5000; ++i) {
    cell.program(spec, spec.g_max(), rng);
    EXPECT_GE(cell.programmed_g(), 0.0);
    EXPECT_LE(cell.programmed_g(), 2.0 * spec.g_max());
  }
}

TEST(ReramCell, VariationSigmaIsRespected) {
  ReramSpec spec = ReramSpec::characterization();
  spec.write_verify_tolerance = 0.0;
  spec.variation_sigma = 0.10;
  spec.levels = 1 << 14;
  Rng rng(5);
  const double target = 5e-5;
  std::vector<double> gs(20000);
  ReramCell cell;
  for (double& g : gs) {
    cell.program(spec, target, rng);
    g = cell.programmed_g();
  }
  const Summary s = summarize(gs);
  EXPECT_NEAR(s.mean, target, 0.002 * target);
  EXPECT_NEAR(s.stddev / target, 0.10, 0.005);
}

TEST(ReramCell, ReadNoiseOnlyWhenConfigured) {
  ReramSpec spec = ReramSpec::characterization();
  spec.write_verify_tolerance = 0.0;
  Rng rng(5);
  ReramCell cell;
  cell.program(spec, 5e-5, rng);
  EXPECT_DOUBLE_EQ(cell.read_g(spec, rng), cell.programmed_g());
  spec.read_noise_sigma = 0.05;
  double diff = 0.0;
  for (int i = 0; i < 10; ++i) {
    diff += std::abs(cell.read_g(spec, rng) - cell.programmed_g());
  }
  EXPECT_GT(diff, 0.0);
}

TEST(ReramCell, EffectiveGIncludesAccessTransistor) {
  ReramSpec spec = ReramSpec::characterization();
  spec.write_verify_tolerance = 0.0;
  spec.transistor_r_on = 10e3;
  Rng rng(5);
  ReramCell cell;
  cell.program(spec, 1.0 / 10e3, rng);  // program to LRS = 10 k
  // Series 10 k + 10 k = 20 k.
  EXPECT_NEAR(cell.effective_g(spec), 1.0 / 20e3, 1e-9);
}

TEST(ReramCell, UnprogrammedCellHasZeroEffectiveG) {
  const ReramSpec spec = ReramSpec::characterization();
  const ReramCell cell;
  EXPECT_DOUBLE_EQ(cell.effective_g(spec), 0.0);
}

TEST(ReramCell, StuckAtFaultsPinTheRails) {
  const ReramSpec spec = ReramSpec::characterization();
  Rng rng(9);
  ReramCell lrs;
  lrs.force_stuck_lrs(spec);
  lrs.program(spec, spec.g_min(), rng);  // a write cannot move it
  EXPECT_TRUE(lrs.hard_faulted());
  EXPECT_DOUBLE_EQ(lrs.programmed_g(), spec.g_max());

  ReramCell hrs;
  hrs.force_stuck_hrs(spec);
  hrs.program(spec, spec.g_max(), rng);
  EXPECT_TRUE(hrs.hard_faulted());
  EXPECT_DOUBLE_EQ(hrs.programmed_g(), spec.g_min());
}

TEST(ReramCell, RetentionDriftFollowsPowerLaw) {
  ReramSpec spec = ReramSpec::characterization();
  spec.write_verify_tolerance = 0.0;
  spec.drift_nu = 0.05;
  spec.drift_t0 = 1.0;
  Rng rng(13);
  ReramCell cell;
  cell.program(spec, 5e-5, rng);
  const double g0 = cell.programmed_g();
  // No drift before t0.
  EXPECT_DOUBLE_EQ(cell.drifted_g(spec, 0.5), g0);
  // Power law afterwards: G(100 s) = G0 * 100^-0.05.
  EXPECT_NEAR(cell.drifted_g(spec, 100.0), g0 * std::pow(100.0, -0.05),
              1e-12 * g0);
  // Drift never increases conductance.
  EXPECT_LT(cell.drifted_g(spec, 1e6), g0);
}

TEST(ReramCell, StuckCellsDoNotDrift) {
  ReramSpec spec = ReramSpec::characterization();
  spec.drift_nu = 0.1;
  ReramCell cell;
  cell.force_stuck_lrs(spec);
  EXPECT_DOUBLE_EQ(cell.drifted_g(spec, 1e6), spec.g_max());
}

TEST(ReramSpec, ValidateRejectsBadReliabilityNumbers) {
  ReramSpec spec;
  spec.drift_nu = -0.1;
  EXPECT_THROW(spec.validate(), Error);
  spec = ReramSpec{};
  spec.drift_t0 = 0.0;
  EXPECT_THROW(spec.validate(), Error);
}

}  // namespace
}  // namespace resipe::device
