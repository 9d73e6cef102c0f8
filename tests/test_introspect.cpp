#include "resipe/introspect/inspect.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "resipe/common/rng.hpp"
#include "resipe/nn/data.hpp"
#include "resipe/nn/zoo.hpp"
#include "resipe/resipe/network.hpp"

namespace resipe::introspect {
namespace {

// Small shared fixture: an untrained MLP-1 lowered onto the engine with
// a modest variation sigma.  Training adds nothing to what these tests
// check and would dominate their runtime.
struct Lowered {
  nn::Sequential model;
  nn::Dataset batch;
  resipe_core::EngineConfig config;

  Lowered() {
    Rng model_rng(0xC0FFEEull);
    model = nn::build_benchmark(nn::BenchmarkNet::kMlp1, model_rng);
    Rng data_rng(7);
    batch = nn::synthetic_digits(16, data_rng);
    config.device.variation_sigma = 0.1;
  }

  resipe_core::ResipeNetwork lower() {
    return resipe_core::ResipeNetwork(model, config, batch.images);
  }
};

// The three attribution components are differences of adjacent
// effect-toggled arms, so they must reassemble the measured total.
TEST(Introspect, AttributionComponentsSumToTotal) {
  Lowered lo;
  const auto net = lo.lower();
  const InspectionReport report =
      inspect(net, lo.batch.images, lo.batch.labels);

  bool any = false;
  for (const LayerReport& lr : report.layers) {
    if (!lr.error.computed) continue;
    any = true;
    EXPECT_GT(lr.error.total, 0.0);
    EXPECT_GT(lr.error.vectors, 0u);
    const double sum =
        lr.error.quantization + lr.error.variation + lr.error.nonlinearity;
    EXPECT_NEAR(sum, lr.error.total,
                0.05 * lr.error.total + 1e-12)
        << "step " << lr.step;
  }
  EXPECT_TRUE(any);
}

TEST(Introspect, EnabledReportCarriesProbesEnergyAndAccuracy) {
  Lowered lo;
  const auto net = lo.lower();
  const InspectionReport report =
      inspect(net, lo.batch.images, lo.batch.labels);

  EXPECT_EQ(report.batch_size, 16u);
  EXPECT_GE(report.analog_accuracy, 0.0);
  EXPECT_GE(report.digital_accuracy, 0.0);
  EXPECT_GT(report.total_energy, 0.0);
  bool any_probe = false;
  for (const LayerReport& lr : report.layers) {
    if (!lr.is_matrix) continue;
    EXPECT_TRUE(lr.probed);
    EXPECT_GT(lr.probe.vectors, 0u);
    EXPECT_GT(lr.energy.total, 0.0);
    EXPECT_GE(lr.accuracy_if_digital, 0.0);
    any_probe = true;
  }
  EXPECT_TRUE(any_probe);
  // The JSON document and dashboard render without throwing and carry
  // the provenance stamp.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"engine_config_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"spike_health\""), std::string::npos);
  EXPECT_NE(report.render_ascii().find("provenance"), std::string::npos);
}

// Saturation taxonomy on hand-built inputs against a tiny matrix.
// With healthy comparators every column fires inside the slice (the
// codec reserves comp_stage of headroom), so silence is provoked the
// way it happens on real hardware: a comparator offset larger than the
// remaining ramp reach censors the column.
TEST(ProbeStats, OffsetBeyondRampReachCountsColumnsAsSilent) {
  resipe_core::EngineConfig cfg;
  cfg.circuit.comparator_offset = cfg.circuit.v_s;  // past the ramp top
  Rng rng(3);
  const std::vector<double> w{0.5, 0.3, -0.2, 0.4};  // 2x2
  const std::vector<double> b(2, 0.0);
  const resipe_core::ProgrammedMatrix pm(cfg, w, b, 2, 2, rng);

  resipe_core::ProgrammedMatrix::ProbeStats stats;
  std::vector<double> y(2, 0.0);
  pm.forward_probed(std::vector<double>{1.0, 0.5}, y, stats);

  EXPECT_EQ(stats.vectors, 1u);
  EXPECT_GT(stats.no_spike, 0u);
  EXPECT_EQ(stats.spikes, 0u);
  EXPECT_EQ(stats.inputs_clamped, 0u);
}

// Small inputs arrive early on the GD ramp and fire their columns in
// the first clock period: the pinned-at-start counter must see them.
TEST(ProbeStats, EarlyFiringColumnsCountAsPinnedAtStart) {
  resipe_core::EngineConfig cfg;
  Rng rng(3);
  const std::vector<double> w{0.5, 0.3, -0.2, 0.4};
  const std::vector<double> b(2, 0.0);
  const resipe_core::ProgrammedMatrix pm(cfg, w, b, 2, 2, rng);

  resipe_core::ProgrammedMatrix::ProbeStats stats;
  std::vector<double> y(2, 0.0);
  pm.forward_probed(std::vector<double>{0.02, 0.01}, y, stats);

  EXPECT_GT(stats.spikes, 0u);
  EXPECT_GT(stats.pinned_start, 0u);
  EXPECT_EQ(stats.no_spike, 0u);
}

TEST(ProbeStats, StrongInputFiresEveryColumnAndFillsTheHistogram) {
  resipe_core::EngineConfig cfg;
  Rng rng(3);
  const std::vector<double> w{0.9, 0.8, 0.7, 0.9};
  const std::vector<double> b(2, 0.0);
  const resipe_core::ProgrammedMatrix pm(cfg, w, b, 2, 2, rng);

  resipe_core::ProgrammedMatrix::ProbeStats stats;
  std::vector<double> y(2, 0.0);
  pm.forward_probed(std::vector<double>{1.0, 1.0}, y, stats);

  EXPECT_GT(stats.spikes, 0u);
  const std::uint64_t hist_mass = std::accumulate(
      stats.spike_time_hist.begin(), stats.spike_time_hist.end(),
      std::uint64_t{0});
  EXPECT_EQ(hist_mass, stats.spikes);
}

TEST(ProbeStats, OverRangeInputCountsClampsAndMatchesForwardExactly) {
  resipe_core::EngineConfig cfg;
  Rng rng(3);
  const std::vector<double> w{0.5, 0.3, -0.2, 0.4};
  const std::vector<double> b{0.1, -0.1};
  resipe_core::ProgrammedMatrix pm(cfg, w, b, 2, 2, rng);
  pm.set_input_scale(1.0);

  const std::vector<double> x{1.7, -0.4};  // both outside [0, 1]
  std::vector<double> y_plain(2, 0.0), y_probed(2, 0.0);
  pm.forward(x, y_plain);
  resipe_core::ProgrammedMatrix::ProbeStats stats;
  pm.forward_probed(x, y_probed, stats);

  EXPECT_EQ(stats.inputs_clamped, 2u);
  for (std::size_t i = 0; i < y_plain.size(); ++i) {
    EXPECT_EQ(y_probed[i], y_plain[i]);  // bitwise, not approximately
  }
}

TEST(ProbeStats, MergeAccumulatesEveryCounter) {
  resipe_core::ProgrammedMatrix::ProbeStats a(4), c(4);
  a.spikes = 3;
  a.no_spike = 1;
  a.pinned_start = 2;
  a.vectors = 1;
  a.spike_time_hist = {1, 0, 2, 0};
  c.spikes = 2;
  c.inputs_clamped = 5;
  c.vectors = 2;
  c.spike_time_hist = {0, 1, 0, 1};
  a.merge(c);
  EXPECT_EQ(a.spikes, 5u);
  EXPECT_EQ(a.no_spike, 1u);
  EXPECT_EQ(a.pinned_start, 2u);
  EXPECT_EQ(a.inputs_clamped, 5u);
  EXPECT_EQ(a.vectors, 3u);
  EXPECT_EQ(a.spike_time_hist, (std::vector<std::uint64_t>{1, 1, 2, 1}));
}

// Provenance: equal configs hash equal; touching any knob changes the
// hash.  The report itself must be complete whether or not telemetry
// was compiled in (this suite also runs under -DRESIPE_TELEMETRY=OFF).
TEST(Provenance, ConfigHashIsStableAndKnobSensitive) {
  resipe_core::EngineConfig base;
  EXPECT_EQ(engine_config_hash(base), engine_config_hash(base));
  resipe_core::EngineConfig tweaked = base;
  tweaked.device.variation_sigma += 0.01;
  EXPECT_NE(engine_config_hash(base), engine_config_hash(tweaked));
  resipe_core::EngineConfig reseeded = base;
  reseeded.program_seed += 1;
  EXPECT_NE(engine_config_hash(base), engine_config_hash(reseeded));
}

TEST(Provenance, ManifestIsPopulatedRegardlessOfTelemetryBuild) {
  const resipe_core::EngineConfig cfg;
  const Provenance p = collect_provenance(cfg);
  EXPECT_FALSE(p.engine_config_hash.empty());
  EXPECT_FALSE(p.compiler.empty());
  EXPECT_FALSE(p.build_type.empty());
  EXPECT_FALSE(p.timestamp.empty());
  EXPECT_GE(p.threads, 1u);
#if defined(RESIPE_TELEMETRY_DISABLED)
  EXPECT_FALSE(p.telemetry_build);
#else
  EXPECT_TRUE(p.telemetry_build);
#endif
}

}  // namespace
}  // namespace resipe::introspect
