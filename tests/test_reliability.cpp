#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "resipe/common/error.hpp"
#include "resipe/crossbar/mapping.hpp"
#include "resipe/device/reram.hpp"
#include "resipe/eval/fidelity.hpp"
#include "resipe/reliability/config.hpp"
#include "resipe/reliability/fault_model.hpp"

namespace resipe {
namespace {

using device::ReramSpec;
using reliability::FaultMap;
using reliability::FaultType;

// ---------------------------------------------------------------- drift

TEST(Drift, IdentityBeforeReferenceTime) {
  EXPECT_DOUBLE_EQ(device::drift_conductance(1e-5, 0.0, 1.0, 0.05), 1e-5);
  EXPECT_DOUBLE_EQ(device::drift_conductance(1e-5, 1.0, 1.0, 0.05), 1e-5);
  EXPECT_DOUBLE_EQ(device::drift_conductance(1e-5, 0.5, 1.0, 0.05), 1e-5);
}

TEST(Drift, IdentityWhenDisabled) {
  EXPECT_DOUBLE_EQ(device::drift_conductance(1e-5, 1e6, 1.0, 0.0), 1e-5);
  EXPECT_DOUBLE_EQ(device::drift_conductance(1e-5, 1e6, 0.0, 0.05), 1e-5);
}

TEST(Drift, MonotoneDecreasingPastReferenceTime) {
  const double g0 = 2e-5;
  double prev = g0;
  for (double t : {2.0, 10.0, 1e3, 1e6, 1e9}) {
    const double g = device::drift_conductance(g0, t, 1.0, 0.03);
    EXPECT_LT(g, prev);
    EXPECT_GT(g, 0.0);
    prev = g;
  }
}

TEST(Drift, MatchesClosedForm) {
  const double g0 = 1e-5;
  const double t0 = 2.0;
  const double nu = 0.04;
  const double t = 3600.0;
  EXPECT_DOUBLE_EQ(device::drift_conductance(g0, t, t0, nu),
                   g0 * std::pow(t / t0, -nu));
}

// ---------------------------------------------------------- fault model

TEST(FaultModel, EmptyConfigGeneratesNoFaults) {
  Rng rng(1);
  const FaultMap map =
      reliability::generate_fault_map(64, 64, {}, rng);
  EXPECT_EQ(map.fault_count(), 0u);
}

TEST(FaultModel, IndependentRatesPassChiSquared) {
  // 300 x 300 cells at 1% LRS / 2% HRS, no clustering: the observed
  // (lrs, hrs, clean) counts must match the multinomial expectation.
  // Chi-squared with 2 degrees of freedom; critical value 13.8 at
  // p = 0.999, so a correct generator fails ~1/1000 seeds (fixed seed).
  reliability::FaultModelConfig cfg;
  cfg.stuck_lrs_rate = 0.01;
  cfg.stuck_hrs_rate = 0.02;
  cfg.cluster_fraction = 0.0;
  Rng rng(20260806);
  const std::size_t n = 300;
  const FaultMap map = reliability::generate_fault_map(n, n, cfg, rng);
  double lrs = 0.0;
  double hrs = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (map.at(r, c) == FaultType::kStuckLrs) lrs += 1.0;
      if (map.at(r, c) == FaultType::kStuckHrs) hrs += 1.0;
    }
  }
  const double cells = static_cast<double>(n * n);
  const double clean = cells - lrs - hrs;
  const double e_lrs = cells * cfg.stuck_lrs_rate;
  const double e_hrs = cells * cfg.stuck_hrs_rate;
  const double e_clean = cells - e_lrs - e_hrs;
  const double chi2 = (lrs - e_lrs) * (lrs - e_lrs) / e_lrs +
                      (hrs - e_hrs) * (hrs - e_hrs) / e_hrs +
                      (clean - e_clean) * (clean - e_clean) / e_clean;
  EXPECT_LT(chi2, 13.8) << "lrs=" << lrs << " hrs=" << hrs;
}

TEST(FaultModel, ClusteringPreservesTotalBudget) {
  reliability::FaultModelConfig cfg;
  cfg.stuck_lrs_rate = 0.02;
  cfg.cluster_fraction = 0.5;
  Rng rng(7);
  const std::size_t n = 200;
  const FaultMap map = reliability::generate_fault_map(n, n, cfg, rng);
  const double expected = 0.02 * static_cast<double>(n * n);
  const double got = static_cast<double>(map.fault_count());
  // Clusters overlap occasionally; allow a generous +-30% band.
  EXPECT_GT(got, 0.7 * expected);
  EXPECT_LT(got, 1.3 * expected);
}

// -------------------------------------------------------- remap planner

FaultMap map_with_faulty_columns(std::size_t rows, std::size_t cols,
                                 const std::vector<std::size_t>& faulty) {
  FaultMap map(rows, cols);
  for (std::size_t c : faulty) map.set(0, c, FaultType::kStuckLrs);
  return map;
}

TEST(RemapPlanner, RepairsUpToSpareCount) {
  // 8 data columns + 3 spares, 3 faulty data columns: full repair.
  const FaultMap detected =
      map_with_faulty_columns(4, 11, {1, 4, 6});
  const auto plan = crossbar::plan_column_remap(detected, 8, 1);
  EXPECT_TRUE(plan.unrepaired.empty());
  EXPECT_EQ(plan.spares_used, 3u);
  EXPECT_EQ(plan.remapped_cols, 3u);
  // Every data column must sit on a clean slot.
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_TRUE(detected.column_clean(plan.slot_of_col[c]))
        << "column " << c << " -> slot " << plan.slot_of_col[c];
  }
}

TEST(RemapPlanner, ReportsUnrepairableBeyondSpares) {
  // 8 data columns + 2 spares, 4 faulty: exactly 2 left unrepaired.
  const FaultMap detected =
      map_with_faulty_columns(4, 10, {0, 2, 5, 7});
  const auto plan = crossbar::plan_column_remap(detected, 8, 1);
  EXPECT_EQ(plan.spares_used, 2u);
  EXPECT_EQ(plan.unrepaired.size(), 2u);
  for (std::size_t c : plan.unrepaired) {
    EXPECT_FALSE(detected.column_clean(plan.slot_of_col[c]));
  }
}

TEST(RemapPlanner, ImportanceDirectsSparesToHeavyColumns) {
  // 4 data columns + 1 spare, faults on columns 0 and 2; column 2
  // carries the big weights, so it gets the spare.  Column 0 then
  // swaps with the lightest clean column, 1, which is left on the
  // faulty slot.
  const FaultMap detected = map_with_faulty_columns(4, 5, {0, 2});
  const std::vector<double> importance = {0.1, 0.0, 5.0, 0.0};
  const auto plan = crossbar::plan_column_remap(detected, 4, 1, importance);
  EXPECT_EQ(plan.slot_of_col, (std::vector<std::size_t>{1, 0, 4, 3}));
  EXPECT_EQ(plan.spares_used, 1u);
  EXPECT_EQ(plan.unrepaired, (std::vector<std::size_t>{1}));
}

TEST(RemapPlanner, SwapsParkDamageOnLightColumns) {
  // No spares at all: the faulty heavy column swaps with the lightest
  // clean column.
  const FaultMap detected = map_with_faulty_columns(4, 4, {1});
  const std::vector<double> importance = {2.0, 9.0, 0.1, 3.0};
  const auto plan = crossbar::plan_column_remap(detected, 4, 1, importance);
  EXPECT_TRUE(detected.column_clean(plan.slot_of_col[1]));
  EXPECT_EQ(plan.unrepaired, (std::vector<std::size_t>{2}));
}

TEST(RemapPlanner, PairGroupsMoveTogether) {
  // 4 data columns = 2 pairs + 2 spare columns = 1 spare pair; a fault
  // in column 3 moves the whole (2, 3) pair.
  const FaultMap detected = map_with_faulty_columns(4, 6, {3});
  const auto plan = crossbar::plan_column_remap(detected, 4, 2);
  EXPECT_EQ(plan.slot_of_col[0], 0u);
  EXPECT_EQ(plan.slot_of_col[1], 1u);
  EXPECT_EQ(plan.slot_of_col[2], 4u);
  EXPECT_EQ(plan.slot_of_col[3], 5u);
  EXPECT_EQ(plan.spares_used, 2u);
  EXPECT_TRUE(plan.unrepaired.empty());
}

TEST(RemapPlanner, RejectsBadGeometry) {
  const FaultMap detected(4, 8);
  EXPECT_THROW(crossbar::plan_column_remap(detected, 0, 1), Error);
  EXPECT_THROW(crossbar::plan_column_remap(detected, 3, 2), Error);
  EXPECT_THROW(crossbar::plan_column_remap(detected, 10, 1), Error);
}

// ------------------------------------------------ bounded write-verify

TEST(ProgramVerified, LandsWithinToleranceOrGivesUpExplicitly) {
  ReramSpec spec = ReramSpec::nn_mapping();
  spec.write_verify_tolerance = 0.01;
  Rng rng(5);
  device::ProgramBudget budget;
  budget.max_attempts = 1;  // single pulse: give-ups must happen
  std::size_t ok = 0;
  std::size_t gave_up = 0;
  for (int i = 0; i < 300; ++i) {
    device::ReramCell cell;
    const auto res = cell.program_verified(
        spec, 0.5 * (spec.g_min() + spec.g_max()), rng, budget);
    ASSERT_LE(res.attempts, budget.max_attempts);
    if (res.status == device::ProgramStatus::kOk) {
      EXPECT_LE(res.relative_error, spec.write_verify_tolerance);
      ++ok;
    } else {
      ASSERT_EQ(res.status, device::ProgramStatus::kGaveUp);
      EXPECT_GT(res.relative_error, spec.write_verify_tolerance);
      ++gave_up;
    }
  }
  // One N(0, tol) pulse lands inside +-tol ~68% of the time.
  EXPECT_GT(ok, 150u);
  EXPECT_GT(gave_up, 30u);
}

TEST(ProgramVerified, RetriesReduceGiveUps) {
  ReramSpec spec = ReramSpec::nn_mapping();
  spec.write_verify_tolerance = 0.01;
  const auto give_up_count = [&](int attempts) {
    Rng rng(5);
    device::ProgramBudget budget;
    budget.max_attempts = attempts;
    std::size_t gave_up = 0;
    for (int i = 0; i < 300; ++i) {
      device::ReramCell cell;
      const auto res = cell.program_verified(
          spec, 0.8 * spec.g_max(), rng, budget);
      if (res.status == device::ProgramStatus::kGaveUp) ++gave_up;
    }
    return gave_up;
  };
  EXPECT_LT(give_up_count(5), give_up_count(1));
  EXPECT_EQ(give_up_count(8), 0u);  // (0.32)^8 per cell: none expected
}

TEST(ProgramVerified, HardFaultedCellReportsAndKeepsRail) {
  const ReramSpec spec = ReramSpec::nn_mapping();
  Rng rng(5);
  device::ReramCell cell;
  cell.force_stuck_lrs(spec);
  const auto res = cell.program_verified(spec, spec.g_min(), rng, {});
  EXPECT_EQ(res.status, device::ProgramStatus::kHardFault);
  EXPECT_DOUBLE_EQ(cell.programmed_g(), spec.g_max());
}

TEST(ProgramVerified, OutOfRangeTargetsTerminateClamped) {
  ReramSpec spec = ReramSpec::nn_mapping();
  spec.write_verify_tolerance = 0.01;
  Rng rng(5);
  for (double target : {-1.0, 0.0, 1e9, 10.0 * spec.g_max()}) {
    device::ReramCell cell;
    const auto res = cell.program_verified(spec, target, rng, {});
    EXPECT_LE(res.attempts, 5);
    EXPECT_GE(cell.target_g(), spec.g_min());
    EXPECT_LE(cell.target_g(), spec.g_max());
    EXPECT_GE(cell.programmed_g(), 0.0);
    EXPECT_LE(cell.programmed_g(), 2.0 * spec.g_max());
  }
}

// --------------------------------------------------- engine integration

TEST(ReliabilityEngine, DisabledConfigIsBitIdenticalToClean) {
  // Setting every reliability knob but leaving enabled = false must not
  // perturb a single RNG draw: fidelity scores compare bit-equal.
  resipe_core::EngineConfig clean;
  resipe_core::EngineConfig armed;
  armed.reliability.faults.stuck_lrs_rate = 0.05;
  armed.reliability.faults.stuck_hrs_rate = 0.05;
  armed.reliability.faults.cluster_fraction = 0.5;
  armed.reliability.mitigation.spare_cols = 8;
  ASSERT_FALSE(armed.reliability.enabled);
  const auto a = eval::mvm_fidelity(clean);
  const auto b = eval::mvm_fidelity(armed);
  EXPECT_EQ(a.rmse, b.rmse);
  EXPECT_EQ(a.worst, b.worst);
  EXPECT_EQ(a.alpha, b.alpha);
}

TEST(ReliabilityEngine, MitigationArmsShareFaultRealization) {
  // The defect stream is keyed by fault_seed alone: flipping mitigation
  // must not change which cells are faulty.
  resipe_core::EngineConfig off;
  off.reliability.enabled = true;
  off.reliability.faults.stuck_lrs_rate = 0.01;
  off.reliability.faults.stuck_hrs_rate = 0.01;
  off.reliability.mitigation.enabled = false;
  resipe_core::EngineConfig on = off;
  on.reliability.mitigation.enabled = true;

  std::vector<double> w(32 * 8);
  Rng wrng(17);
  for (double& x : w) x = wrng.uniform(-1.0, 1.0);
  const std::vector<double> bias(8, 0.0);

  Rng rng_off(42);
  Rng rng_on(42);
  const resipe_core::ProgrammedMatrix m_off(off, w, bias, 32, 8, rng_off);
  const resipe_core::ProgrammedMatrix m_on(on, w, bias, 32, 8, rng_on);
  EXPECT_GT(m_off.reliability_stats().cells_faulty, 0u);
  EXPECT_EQ(m_off.reliability_stats().cells_faulty,
            m_on.reliability_stats().cells_faulty);
  // The blind arm repairs nothing; the mitigating arm remaps columns
  // and compensates stuck cells of the same defects.
  EXPECT_EQ(m_off.reliability_stats().columns_remapped, 0u);
  EXPECT_EQ(m_off.reliability_stats().cells_compensated, 0u);
  EXPECT_GT(m_on.reliability_stats().columns_remapped, 0u);
  EXPECT_GT(m_on.reliability_stats().cells_compensated, 0u);
}

TEST(ReliabilityEngine, MitigationImprovesFidelityUnderDefects) {
  resipe_core::EngineConfig off;
  off.reliability.enabled = true;
  off.reliability.faults.stuck_lrs_rate = 0.01;
  off.reliability.faults.stuck_hrs_rate = 0.01;
  off.reliability.mitigation.enabled = false;
  resipe_core::EngineConfig on = off;
  on.reliability.mitigation.enabled = true;
  const auto s_off = eval::mvm_fidelity(off);
  const auto s_on = eval::mvm_fidelity(on);
  EXPECT_LT(s_on.rmse, s_off.rmse);
}

TEST(ReliabilityEngine, OutputFlagsAllTrueWhenDisabled) {
  std::vector<double> w(16 * 4, 0.25);
  const std::vector<double> bias(4, 0.0);
  Rng rng(1);
  const resipe_core::ProgrammedMatrix m(resipe_core::EngineConfig{}, w,
                                        bias, 16, 4, rng);
  EXPECT_EQ(m.output_ok().size(), 4u);
  EXPECT_EQ(m.degraded_outputs(), 0u);
  for (bool ok : m.output_ok()) EXPECT_TRUE(ok);
}

TEST(ReliabilityEngine, SaturatedDefectsDegradeOutputsGracefully) {
  // Absurd defect rate with no spares: outputs must still compute
  // (forward succeeds) but carry degraded flags.
  resipe_core::EngineConfig cfg;
  cfg.reliability.enabled = true;
  cfg.reliability.faults.stuck_lrs_rate = 0.25;
  cfg.reliability.faults.stuck_hrs_rate = 0.25;
  cfg.reliability.mitigation.spare_cols = 0;
  std::vector<double> w(32 * 8);
  Rng wrng(17);
  for (double& x : w) x = wrng.uniform(-1.0, 1.0);
  const std::vector<double> bias(8, 0.0);
  Rng rng(42);
  const resipe_core::ProgrammedMatrix m(cfg, w, bias, 32, 8, rng);
  EXPECT_GT(m.degraded_outputs(), 0u);
  std::vector<double> x(32, 0.5);
  std::vector<double> y(8, 0.0);
  m.forward(x, y);  // degrades, does not throw
  for (double v : y) EXPECT_TRUE(std::isfinite(v));
}

TEST(ReliabilityEngine, HashSeedDecorrelatesStreams) {
  EXPECT_NE(hash_seed(1, 0, 0), hash_seed(1, 1, 0));
  EXPECT_NE(hash_seed(1, 0, 1), hash_seed(1, 1, 0));
  EXPECT_NE(hash_seed(1, 2, 3), hash_seed(2, 2, 3));
  EXPECT_EQ(hash_seed(9, 4, 2), hash_seed(9, 4, 2));
}

}  // namespace
}  // namespace resipe
