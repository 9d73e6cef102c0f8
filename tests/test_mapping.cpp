#include "resipe/crossbar/mapping.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "resipe/common/error.hpp"
#include "resipe/common/rng.hpp"

namespace resipe::crossbar {
namespace {

device::ReramSpec fine_spec() {
  device::ReramSpec spec = device::ReramSpec::nn_mapping();
  spec.levels = 1 << 14;  // make quantization negligible for round-trips
  return spec;
}

class MappingRoundTrip : public ::testing::TestWithParam<SignedMapping> {};

TEST_P(MappingRoundTrip, UnmapRecoversWeights) {
  const SignedMapping strategy = GetParam();
  const device::ReramSpec spec = fine_spec();
  Rng rng(3);
  constexpr std::size_t kRows = 6;
  constexpr std::size_t kCols = 4;
  std::vector<double> w(kRows * kCols);
  for (double& v : w) v = rng.normal(0.0, 0.5);

  const MappedWeights mapped = map_weights(w, kRows, kCols, spec, strategy);
  const auto recovered = unmap_weights(mapped, mapped.g_targets);
  ASSERT_EQ(recovered.size(), w.size());
  double max_abs = 0.0;
  for (double v : w) max_abs = std::max(max_abs, std::abs(v));
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(recovered[i], w[i], 1e-3 * max_abs) << "i=" << i;
  }
}

TEST_P(MappingRoundTrip, TargetsStayInsideWindow) {
  const SignedMapping strategy = GetParam();
  const device::ReramSpec spec = fine_spec();
  Rng rng(4);
  std::vector<double> w(12);
  for (double& v : w) v = rng.normal(0.0, 2.0);
  const MappedWeights mapped = map_weights(w, 4, 3, spec, strategy);
  for (double g : mapped.g_targets) {
    EXPECT_GE(g, spec.g_min() - 1e-15);
    EXPECT_LE(g, spec.g_max() + 1e-15);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, MappingRoundTrip,
                         ::testing::Values(
                             SignedMapping::kDifferentialPair,
                             SignedMapping::kComplementaryPair,
                             SignedMapping::kOffsetColumn));

TEST(Mapping, PhysicalColumnLayout) {
  const device::ReramSpec spec = fine_spec();
  const std::vector<double> w(8, 0.1);
  const auto diff =
      map_weights(w, 2, 4, spec, SignedMapping::kDifferentialPair);
  EXPECT_EQ(diff.cols, 8u);
  EXPECT_EQ(diff.plus_col(1), 2u);
  EXPECT_EQ(diff.minus_col(1), 3u);

  const auto offset = map_weights(w, 2, 4, spec, SignedMapping::kOffsetColumn);
  EXPECT_EQ(offset.cols, 5u);
  EXPECT_EQ(offset.plus_col(2), 2u);
  EXPECT_EQ(offset.minus_col(2), 4u);  // the shared reference column
}

TEST(Mapping, DifferentialParksSmallWeightsAtGmin) {
  const device::ReramSpec spec = fine_spec();
  const std::vector<double> w{0.0, 1.0};
  const auto m = map_weights(w, 1, 2, spec,
                             SignedMapping::kDifferentialPair);
  // Zero weight: both columns at G_min.
  EXPECT_DOUBLE_EQ(m.g_targets[m.plus_col(0)], spec.g_min());
  EXPECT_DOUBLE_EQ(m.g_targets[m.minus_col(0)], spec.g_min());
  // Max weight: plus at G_max, minus at G_min.
  EXPECT_DOUBLE_EQ(m.g_targets[m.plus_col(1)], spec.g_max());
  EXPECT_DOUBLE_EQ(m.g_targets[m.minus_col(1)], spec.g_min());
}

TEST(Mapping, ComplementaryPairLoadingIsWeightIndependent) {
  // The pair's combined conductance is 2 * rows * g_mid whatever the
  // weights are (each cell pair mirrors around the window midpoint).
  const device::ReramSpec spec = fine_spec();
  Rng rng(5);
  constexpr std::size_t kRows = 8;
  std::vector<double> w(kRows);
  for (double& v : w) v = rng.normal(0.0, 0.5);
  const auto m = map_weights(w, kRows, 1, spec,
                             SignedMapping::kComplementaryPair);
  double plus = 0.0;
  double minus = 0.0;
  for (std::size_t r = 0; r < kRows; ++r) {
    plus += m.g_targets[r * m.cols + m.plus_col(0)];
    minus += m.g_targets[r * m.cols + m.minus_col(0)];
  }
  const double g_mid = 0.5 * (spec.g_min() + spec.g_max());
  EXPECT_NEAR(plus + minus, 2.0 * static_cast<double>(kRows) * g_mid,
              1e-10);
}

TEST(Mapping, ExplicitClipOverridesScale) {
  const device::ReramSpec spec = fine_spec();
  const std::vector<double> w{0.5, -2.0};  // |w|max = 2
  const auto m = map_weights(w, 1, 2, spec,
                             SignedMapping::kDifferentialPair,
                             /*w_clip=*/1.0);
  // -2 clips to -1: minus column of logical col 1 sits at G_max.
  EXPECT_DOUBLE_EQ(m.g_targets[m.minus_col(1)], spec.g_max());
  EXPECT_NEAR(m.weight_per_siemens,
              1.0 / (spec.g_max() - spec.g_min()), 1e-9);
}

TEST(Mapping, AllZeroMatrixIsWellDefined) {
  const device::ReramSpec spec = fine_spec();
  const std::vector<double> w(4, 0.0);
  const auto m = map_weights(w, 2, 2, spec,
                             SignedMapping::kDifferentialPair);
  const auto rec = unmap_weights(m, m.g_targets);
  for (double v : rec) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Mapping, RejectsBadShapes) {
  const device::ReramSpec spec = fine_spec();
  const std::vector<double> w(4, 0.0);
  EXPECT_THROW(map_weights(w, 3, 2, spec,
                           SignedMapping::kDifferentialPair),
               Error);
  EXPECT_THROW(map_weights(w, 0, 2, spec,
                           SignedMapping::kDifferentialPair),
               Error);
}

TEST(Mapping, RejectsNonFiniteWeightsNamingTheFirst) {
  const device::ReramSpec spec = fine_spec();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  // 2 x 3 matrix; the bad weight sits at row 1, column 2, after a
  // finite one at row 0.
  for (const double bad : {kNaN, kInf, -kInf}) {
    std::vector<double> w{0.1, -0.2, 0.3, 0.4, 0.5, bad};
    for (const SignedMapping strategy :
         {SignedMapping::kDifferentialPair, SignedMapping::kComplementaryPair,
          SignedMapping::kOffsetColumn}) {
      for (const double clip : {0.0, 1.0}) {
        try {
          map_weights(w, 2, 3, spec, strategy, clip);
          ADD_FAILURE() << "accepted weight " << bad;
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find("row 1, column 2"),
                    std::string::npos)
              << e.what();
        }
      }
    }
    // Only the first one is named.
    w[1] = bad;
    try {
      map_weights(w, 2, 3, spec, SignedMapping::kDifferentialPair);
      ADD_FAILURE() << "accepted weight " << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("row 0, column 1"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Mapping, ToStringNames) {
  EXPECT_STREQ(to_string(SignedMapping::kDifferentialPair),
               "differential pair");
  EXPECT_STREQ(to_string(SignedMapping::kComplementaryPair),
               "complementary pair");
  EXPECT_STREQ(to_string(SignedMapping::kOffsetColumn), "offset column");
}

}  // namespace
}  // namespace resipe::crossbar
