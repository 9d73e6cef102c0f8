#include "resipe/introspect/inspect.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "resipe/common/rng.hpp"
#include "resipe/nn/data.hpp"
#include "resipe/nn/zoo.hpp"
#include "resipe/resipe/network.hpp"
#include "resipe/verify/generators.hpp"
#include "resipe/verify/serialize.hpp"

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

// `value` (one repro-record value as written) changed to another value
// of its type, or empty when the test leaves that key alone.
std::string changed_value(const std::string& value) {
  if (value == "true") return "false";
  if (value == "false") return "true";
  for (const auto& [from, to] :
       {std::pair{"\"differential_pair\"", "\"offset_column\""},
        {"\"complementary_pair\"", "\"differential_pair\""},
        {"\"offset_column\"", "\"differential_pair\""},
        {"\"exact\"", "\"linear\""},
        {"\"linear\"", "\"exact\""}}) {
    if (value == from) return to;
  }
  const bool quoted = value.size() >= 2 && value.front() == '"';
  const std::string bare = quoted ? value.substr(1, value.size() - 2) : value;
  if (bare.empty() || bare.find_first_not_of("-0123456789.e+") !=
                          std::string::npos) {
    return {};  // a name, the detail or an array: not an engine knob
  }
  if (bare.find_first_of(".e") == std::string::npos) {
    // Quoted integers are the 64-bit seeds.
    const std::string bumped = quoted ? std::to_string(std::stoull(bare) + 1)
                                      : std::to_string(std::stoll(bare) + 1);
    return quoted ? '"' + bumped + '"' : bumped;
  }
  std::ostringstream os;
  os.precision(17);
  os << std::stod(bare) * 1.5;
  return os.str();
}

// Every EngineConfig knob the repro record writes changes the hash when
// it alone changes.  events_enabled is the one exception: the event
// engine is bit-identical to the dense one, so it must not churn the
// hash keying committed bench baselines.  A key counts as an engine knob
// when changing it changes the record's EngineConfig.
TEST(Provenance, EveryEngineKnobChangesTheHash) {
  const verify::ReproRecord base{
      verify::generate_case({verify::kSchemaVersion, 1}), "all", ""};
  const std::string json = verify::repro_to_json(base);
  const std::string base_hash = engine_config_hash(base.spec.config);
  std::vector<std::string> lines;
  std::istringstream in(json);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::size_t knobs = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::size_t colon = line.find("\": ");
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(3, colon - 3);
    const bool comma = line.back() == ',';
    const std::string value =
        line.substr(colon + 3, line.size() - colon - 3 - (comma ? 1 : 0));
    const std::string changed = changed_value(value);
    if (changed.empty()) continue;
    std::string text;
    for (std::size_t j = 0; j < lines.size(); ++j) {
      text += j == i ? line.substr(0, colon + 3) + changed + (comma ? "," : "")
                     : lines[j];
      text += '\n';
    }
    verify::ReproRecord config_only = base;
    config_only.spec.config = verify::repro_from_json(text).spec.config;
    if (verify::repro_to_json(config_only) == json) continue;
    ++knobs;
    const std::string hash = engine_config_hash(config_only.spec.config);
    if (key == "events_enabled") {
      EXPECT_EQ(hash, base_hash) << key;
    } else {
      EXPECT_NE(hash, base_hash) << key << ": " << value << " -> " << changed;
    }
  }
  EXPECT_GE(knobs, 51u);  // the EngineConfig keys a record writes today
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
