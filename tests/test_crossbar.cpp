#include "resipe/crossbar/crossbar.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "resipe/common/error.hpp"
#include "resipe/crossbar/ir_drop.hpp"

namespace resipe::crossbar {
namespace {

device::ReramSpec noiseless_spec() {
  device::ReramSpec spec = device::ReramSpec::characterization();
  spec.write_verify_tolerance = 0.0;
  spec.variation_sigma = 0.0;
  spec.transistor_r_on = 0.0;
  spec.levels = 1 << 14;
  return spec;
}

TEST(Crossbar, ConstructionAndBounds) {
  const device::ReramSpec spec = noiseless_spec();
  Crossbar xbar(4, 3, spec);
  EXPECT_EQ(xbar.rows(), 4u);
  EXPECT_EQ(xbar.cols(), 3u);
  EXPECT_THROW(xbar.g(4, 0), Error);
  EXPECT_THROW(xbar.g(0, 3), Error);
  EXPECT_THROW(Crossbar(0, 3, spec), Error);
}

TEST(Crossbar, ProgramMatrixSizeChecked) {
  Crossbar xbar(2, 2, noiseless_spec());
  Rng rng(1);
  const std::vector<double> wrong(3, 1e-5);
  EXPECT_THROW(xbar.program(wrong, rng), Error);
}

TEST(Crossbar, ColumnDriveMatchesHandComputation) {
  Crossbar xbar(2, 1, noiseless_spec());
  Rng rng(1);
  // G1 = 20 uS (50 k), G2 = 5 uS (200 k).
  xbar.program(std::vector<double>{20e-6, 5e-6}, rng);
  const std::vector<double> v{0.8, 0.2};
  const auto drive = xbar.column_drive(0, v);
  EXPECT_NEAR(drive.g_total, 25e-6, 2e-8);
  // Veq = (0.8*20 + 0.2*5) / 25 = 0.68.
  EXPECT_NEAR(drive.v_eq, 0.68, 1e-4);
}

TEST(Crossbar, GroundedRowStillLoadsTheColumn) {
  Crossbar xbar(2, 1, noiseless_spec());
  Rng rng(1);
  xbar.program(std::vector<double>{20e-6, 20e-6}, rng);
  const std::vector<double> v{1.0, 0.0};
  const auto drive = xbar.column_drive(0, v);
  // The grounded row halves the equivalent voltage.
  EXPECT_NEAR(drive.v_eq, 0.5, 1e-4);
  EXPECT_NEAR(drive.g_total, 40e-6, 2e-8);
}

TEST(Crossbar, IdealMvmMatchesDotProduct) {
  Crossbar xbar(3, 2, noiseless_spec());
  Rng rng(1);
  const std::vector<double> g{1e-5, 2e-5, 3e-5, 4e-5, 5e-5, 6e-5};
  xbar.program(g, rng);
  const std::vector<double> v{1.0, 0.5, 0.25};
  const auto y = xbar.ideal_mvm(v);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_NEAR(y[0], 1.0 * 1e-5 + 0.5 * 3e-5 + 0.25 * 5e-5, 2e-8);
  EXPECT_NEAR(y[1], 1.0 * 2e-5 + 0.5 * 4e-5 + 0.25 * 6e-5, 2e-8);
}

TEST(Crossbar, ColumnTotalGSumsCells) {
  Crossbar xbar(3, 1, noiseless_spec());
  Rng rng(1);
  xbar.program(std::vector<double>(3, 1e-5), rng);
  EXPECT_NEAR(xbar.column_total_g(0), 3e-5, 2e-8);
}

TEST(Crossbar, ComputeEnergyZeroForUniformDrive) {
  Crossbar xbar(2, 1, noiseless_spec());
  Rng rng(1);
  xbar.program(std::vector<double>(2, 1e-5), rng);
  const std::vector<double> v{0.5, 0.5};
  // Equal wordline voltages -> Veq equals them -> no static mismatch.
  EXPECT_NEAR(xbar.compute_energy(v, 1e-9), 0.0, 1e-24);
  const std::vector<double> v2{1.0, 0.0};
  EXPECT_GT(xbar.compute_energy(v2, 1e-9), 0.0);
}

TEST(Crossbar, StaticReadEnergyMatchesGV2T) {
  Crossbar xbar(1, 1, noiseless_spec());
  Rng rng(1);
  xbar.program(std::vector<double>{1e-5}, rng);
  const std::vector<double> v{0.5};
  // P = G V^2 = 1e-5 * 0.25 = 2.5e-6 W over 100 ns = 2.5e-13 J.
  EXPECT_NEAR(xbar.static_read_energy(v, 100e-9), 2.5e-13, 1e-16);
}

TEST(Crossbar, NoisyDrivesDifferFromCleanOnesWithNoise) {
  device::ReramSpec spec = noiseless_spec();
  spec.read_noise_sigma = 0.05;
  Crossbar xbar(4, 2, spec);
  Rng rng(1);
  std::vector<double> g(8, 1e-5);
  xbar.program(g, rng);
  const std::vector<double> v{1.0, 0.8, 0.6, 0.4};
  const auto clean = xbar.drives(v);
  Rng noise(2);
  const auto noisy = xbar.drives_noisy(v, noise);
  EXPECT_NE(clean[0].g_total, noisy[0].g_total);
}

TEST(Crossbar, AreaScalesWithCellCount) {
  const device::ReramSpec spec = noiseless_spec();
  Crossbar small(8, 8, spec);
  Crossbar big(16, 16, spec);
  EXPECT_NEAR(big.area() / small.area(), 4.0, 1e-12);
}

TEST(Crossbar, MakeRepresentativeIsDeterministic) {
  const device::ReramSpec spec = device::ReramSpec::nn_mapping();
  const Crossbar a = make_representative(8, 8, spec, 7);
  const Crossbar b = make_representative(8, 8, spec, 7);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_DOUBLE_EQ(a.g(r, c), b.g(r, c));
    }
  }
}

TEST(IrDrop, AttenuationGrowsWithDistance) {
  const WireModel wires;
  const double g = 20e-6;
  const double g00 = wires.effective_g(g, 0, 0);
  const double g77 = wires.effective_g(g, 7, 7);
  EXPECT_DOUBLE_EQ(g00, g);  // near corner sees no wire
  EXPECT_LT(g77, g00);
}

TEST(IrDrop, DrivesAreWeakerThanIdeal) {
  const device::ReramSpec spec = noiseless_spec();
  Crossbar xbar(8, 4, spec);
  Rng rng(1);
  std::vector<double> g(32, 2e-5);
  xbar.program(g, rng);
  const std::vector<double> v(8, 1.0);
  const WireModel wires{10.0, 10.0};
  const auto ideal = xbar.drives(v);
  const auto degraded = drives_with_ir_drop(xbar, v, wires);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_LT(degraded[c].g_total, ideal[c].g_total);
  }
}

TEST(IrDrop, WorstCaseAttenuationFor32x32IsSmall) {
  const device::ReramSpec spec = device::ReramSpec::nn_mapping();
  const Crossbar xbar(32, 32, spec);
  const WireModel wires;  // 2.5 ohm/segment
  // 62 segments * 2.5 ohm = 155 ohm against >= 50 k cells: < 1%.
  EXPECT_LT(worst_case_attenuation(xbar, wires), 0.01);
}

}  // namespace
}  // namespace resipe::crossbar
