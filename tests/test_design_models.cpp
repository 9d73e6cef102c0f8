// Design-model invariants behind Table II: how each engine's energy,
// power and area respond to utilization and array size — the
// sensitivities a reader checks before trusting the headline ratios.
#include <gtest/gtest.h>

#include "resipe/common/error.hpp"
#include "resipe/baselines/level_based.hpp"
#include "resipe/baselines/pwm_based.hpp"
#include "resipe/baselines/rate_coding.hpp"
#include "resipe/resipe/design.hpp"

namespace resipe {
namespace {

TEST(ResipeDesign, EnergyScalesWithColumns) {
  // The COG cluster dominates, so halving the columns roughly halves
  // the per-MVM energy.
  resipe_core::ResipeDesign wide({}, device::ReramSpec::nn_mapping(), 32,
                                 32);
  resipe_core::ResipeDesign narrow({}, device::ReramSpec::nn_mapping(), 32,
                                   16);
  const double ratio = wide.evaluate().energy_per_mvm /
                       narrow.evaluate().energy_per_mvm;
  EXPECT_NEAR(ratio, 2.0, 0.15);
}

TEST(ResipeDesign, EnergyInsensitiveToRows) {
  // Rows add S/H + drivers only — a few percent of the COG cluster.
  resipe_core::ResipeDesign tall({}, device::ReramSpec::nn_mapping(), 64,
                                 32);
  resipe_core::ResipeDesign base({}, device::ReramSpec::nn_mapping(), 32,
                                 32);
  const double ratio =
      tall.evaluate().energy_per_mvm / base.evaluate().energy_per_mvm;
  EXPECT_LT(ratio, 1.2);
  EXPECT_GT(ratio, 1.0);
}

TEST(ResipeDesign, CogShareHoldsAcrossSizes) {
  for (std::size_t n : {16u, 32u, 64u}) {
    resipe_core::ResipeDesign design({}, device::ReramSpec::nn_mapping(),
                                     n, n);
    EXPECT_GT(design.mvm_report().energy_share("COG"), 0.9)
        << n << "x" << n;
  }
}

TEST(LevelBased, EnergyGrowsWithReadVoltage) {
  baselines::LevelBasedParams low;
  low.v_read = 0.3;
  baselines::LevelBasedParams high;
  high.v_read = 0.6;
  const baselines::LevelBasedDesign a(low);
  const baselines::LevelBasedDesign b(high);
  EXPECT_GT(b.evaluate().energy_per_mvm, a.evaluate().energy_per_mvm);
}

TEST(RateCoding, EnergyGrowsWithUtilization) {
  // More spikes per input = more modulator, crossbar and neuron events.
  baselines::RateCodingParams quiet;
  quiet.utilization = 0.1;
  baselines::RateCodingParams busy;
  busy.utilization = 0.9;
  const baselines::RateCodingDesign a(quiet);
  const baselines::RateCodingDesign b(busy);
  EXPECT_GT(b.evaluate().energy_per_mvm, a.evaluate().energy_per_mvm);
}

TEST(RateCoding, MoreBitsMeansLongerWindow) {
  baselines::RateCodingParams coarse;
  coarse.bits = 4;
  baselines::RateCodingParams fine;
  fine.bits = 6;
  EXPECT_GT(fine.window(), coarse.window());
}

TEST(PwmBased, EnergyGrowsWithDuty) {
  baselines::PwmParams low;
  low.utilization = 0.1;
  baselines::PwmParams high;
  high.utilization = 0.9;
  const baselines::PwmDesign a(low);
  const baselines::PwmDesign b(high);
  EXPECT_GT(b.evaluate().energy_per_mvm, a.evaluate().energy_per_mvm);
}

TEST(TableII, LatencyOrderingMatchesTableI) {
  // Fast: level.  Medium: ReSiPE, rate, PWM.
  const resipe_core::ResipeDesign resipe;
  const baselines::LevelBasedDesign level;
  const baselines::RateCodingDesign rate;
  const baselines::PwmDesign pwm;
  EXPECT_LT(level.mvm_latency(), resipe.mvm_latency());
  EXPECT_LT(resipe.mvm_latency(), rate.mvm_latency());
  EXPECT_LT(rate.mvm_latency(), pwm.mvm_latency());
}

TEST(TableII, ResipeHasTheSmallestEngine) {
  const resipe_core::ResipeDesign resipe;
  const baselines::LevelBasedDesign level;
  const baselines::RateCodingDesign rate;
  const baselines::PwmDesign pwm;
  const double a = resipe.evaluate().area;
  EXPECT_LT(a, level.evaluate().area);
  EXPECT_LT(a, rate.evaluate().area);
  EXPECT_LT(a, pwm.evaluate().area);
}

TEST(ResipeDesign, UtilizationInputValidated) {
  EXPECT_THROW(resipe_core::ResipeDesign(
                   {}, device::ReramSpec::nn_mapping(), 32, 32, 1.5),
               resipe::Error);
}

TEST(ResipeDesign, PipelinedIntervalIsOneSlice) {
  circuits::CircuitParams params;
  params.slice_length = 50e-9;
  params.comp_stage = 0.5e-9;
  resipe_core::ResipeDesign design(params);
  EXPECT_DOUBLE_EQ(design.initiation_interval(), 50e-9);
  EXPECT_DOUBLE_EQ(design.mvm_latency(), 100e-9);
}

}  // namespace
}  // namespace resipe
