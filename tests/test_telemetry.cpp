// Telemetry subsystem tests: metric aggregation, nested timer
// accounting, disabled-mode no-op behavior, and Chrome-trace export.
#include "resipe/telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "resipe/common/error.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/crossbar/mapping.hpp"
#include "resipe/device/reram.hpp"
#include "resipe/eval/characterization.hpp"
#include "resipe/resipe/network.hpp"
#include "resipe/resipe/spike_code.hpp"
#include "resipe/resipe/tile.hpp"

namespace resipe::telemetry {
namespace {

// Restores the enable flag and stops any trace session around each test
// so tests stay order-independent.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceSession::instance().stop();
    set_enabled(true);
    MetricRegistry::instance().reset_values();
    CallProfile::this_thread().reset();
  }
  void TearDown() override {
    TraceSession::instance().stop();
    set_enabled(false);
    MetricRegistry::instance().reset_values();
    CallProfile::this_thread().reset();
  }
};

// --- minimal JSON validator --------------------------------------------
// Just enough of a recursive-descent parser to prove the exported trace
// is well-formed JSON (raw control bytes inside strings included);
// values are not retained.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_lit();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string_lit()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string_lit() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (static_cast<unsigned char>(s_[pos_]) < 0x20) return false;
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::vector<double> extract_ts(const std::string& json) {
  std::vector<double> out;
  std::size_t pos = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    out.push_back(std::stod(json.substr(pos)));
  }
  return out;
}

// --- counters / gauges / histograms ------------------------------------

// Tests below that exercise the RESIPE_TELEM_* macros only run when the
// instrumentation is compiled in (-DRESIPE_TELEMETRY=ON, the default).
#ifndef RESIPE_TELEMETRY_DISABLED
TEST_F(TelemetryTest, CounterAggregatesAcrossCallSites) {
  Counter& c = MetricRegistry::instance().counter("test.unit.counter");
  c.reset();
  RESIPE_TELEM_COUNT("test.unit.counter", 3);
  RESIPE_TELEM_COUNT("test.unit.counter", 4);
  EXPECT_EQ(c.value(), 7u);
  const auto snap = MetricRegistry::instance().snapshot();
  EXPECT_EQ(snap.counters.at("test.unit.counter"), 7u);
}
#endif  // !RESIPE_TELEMETRY_DISABLED

TEST_F(TelemetryTest, CounterIsThreadSafe) {
  Counter& c = MetricRegistry::instance().counter("test.unit.mt_counter");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&c] {
      for (int j = 0; j < kAdds; ++j) c.add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

#ifndef RESIPE_TELEMETRY_DISABLED
TEST_F(TelemetryTest, GaugeKeepsLastValue) {
  RESIPE_TELEM_GAUGE("test.unit.gauge", 1.5);
  RESIPE_TELEM_GAUGE("test.unit.gauge", -2.25);
  EXPECT_DOUBLE_EQ(MetricRegistry::instance().gauge("test.unit.gauge").value(),
                   -2.25);
}
#endif  // !RESIPE_TELEMETRY_DISABLED

TEST_F(TelemetryTest, HistogramBucketsObservations) {
  Histogram& h =
      MetricRegistry::instance().histogram("test.unit.hist", {1.0, 10.0});
  h.reset();
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (inclusive upper bound)
  h.observe(5.0);   // <= 10
  h.observe(100.0); // overflow
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.5);
}

TEST_F(TelemetryTest, HistogramTracksExactMinMax) {
  Histogram h(std::vector<double>{1.0, 10.0});
  EXPECT_DOUBLE_EQ(h.min(), 0.0);  // empty histogram reports zeros
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.observe(4.25);
  h.observe(-3.5);
  h.observe(250.0);
  EXPECT_DOUBLE_EQ(h.min(), -3.5);
  EXPECT_DOUBLE_EQ(h.max(), 250.0);
  h.reset();
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST_F(TelemetryTest, PercentilesOfAUniformDistribution) {
  // 1..100 against decade buckets: the interpolated percentiles must
  // land within one bucket width of the exact order statistics.
  Histogram& h = MetricRegistry::instance().histogram(
      "test.unit.pct",
      {10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0});
  h.reset();
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));
  const auto snap = MetricRegistry::instance().snapshot();
  const auto& data = snap.histograms.at("test.unit.pct");
  EXPECT_NEAR(histogram_percentile(data, 0.50), 50.0, 10.0);
  EXPECT_NEAR(histogram_percentile(data, 0.95), 95.0, 10.0);
  EXPECT_NEAR(histogram_percentile(data, 0.99), 99.0, 10.0);
  // The extremes clamp to the exact observed range.
  EXPECT_DOUBLE_EQ(histogram_percentile(data, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram_percentile(data, 1.0), 100.0);
  const HistogramSummary s = summarize_histogram(data);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST_F(TelemetryTest, PercentilesOfASkewedDistribution) {
  // 90 observations at ~1 and 10 at ~1000: p50 stays in the low bucket,
  // p95/p99 jump to the tail, and the overflow bucket clamps to max.
  Histogram& h =
      MetricRegistry::instance().histogram("test.unit.skew", {2.0, 10.0});
  h.reset();
  for (int i = 0; i < 90; ++i) h.observe(1.0);
  for (int i = 0; i < 10; ++i) h.observe(1000.0);
  const auto snap = MetricRegistry::instance().snapshot();
  const auto& data = snap.histograms.at("test.unit.skew");
  EXPECT_LE(histogram_percentile(data, 0.50), 2.0);
  EXPECT_GT(histogram_percentile(data, 0.95), 10.0);
  EXPECT_LE(histogram_percentile(data, 0.95), 1000.0);
  EXPECT_DOUBLE_EQ(histogram_percentile(data, 1.0), 1000.0);
}

TEST_F(TelemetryTest, EmptyHistogramSummaryIsAllZero) {
  MetricsSnapshot::HistogramData empty;
  empty.bounds = {1.0};
  empty.buckets = {0, 0};
  // Pinned contract: zero observations -> every summary field is 0,
  // every percentile is 0 (never NaN, never a bucket bound).
  EXPECT_DOUBLE_EQ(histogram_percentile(empty, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram_percentile(empty, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram_percentile(empty, 1.0), 0.0);
  const HistogramSummary s = summarize_histogram(empty);
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST_F(TelemetryTest, SingleSampleHistogramSummaryIsTheSample) {
  // Pinned contract: one observation -> mean == min == max == every
  // percentile == the observed value (not a bucket boundary estimate).
  Histogram& h =
      MetricRegistry::instance().histogram("test.unit.single", {1.0, 10.0});
  MetricRegistry::instance().reset_values();
  h.observe(3.25);
  const MetricsSnapshot snap = MetricRegistry::instance().snapshot();
  const auto& data = snap.histograms.at("test.unit.single");
  ASSERT_EQ(data.count, 1u);
  EXPECT_DOUBLE_EQ(histogram_percentile(data, 0.0), 3.25);
  EXPECT_DOUBLE_EQ(histogram_percentile(data, 0.5), 3.25);
  EXPECT_DOUBLE_EQ(histogram_percentile(data, 1.0), 3.25);
  const HistogramSummary s = summarize_histogram(data);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 3.25);
  EXPECT_DOUBLE_EQ(s.min, 3.25);
  EXPECT_DOUBLE_EQ(s.max, 3.25);
  EXPECT_DOUBLE_EQ(s.p50, 3.25);
  EXPECT_DOUBLE_EQ(s.p95, 3.25);
  EXPECT_DOUBLE_EQ(s.p99, 3.25);
}

TEST_F(TelemetryTest, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram(std::vector<double>{}), Error);
  EXPECT_THROW(Histogram({2.0, 1.0}), Error);
  EXPECT_THROW(Histogram({1.0, 1.0}), Error);
}

TEST_F(TelemetryTest, ResetValuesKeepsRegisteredEntries) {
  Counter& c = MetricRegistry::instance().counter("test.unit.reset");
  c.add(5);
  MetricRegistry::instance().reset_values();
  EXPECT_EQ(c.value(), 0u);
  // The same reference must stay valid and reusable after reset.
  c.add(2);
  EXPECT_EQ(MetricRegistry::instance().counter("test.unit.reset").value(),
            2u);
}

// --- disabled mode ------------------------------------------------------

TEST_F(TelemetryTest, DisabledModeRecordsNothing) {
  Counter& c = MetricRegistry::instance().counter("test.unit.disabled");
  c.reset();
  set_enabled(false);
  RESIPE_TELEM_COUNT("test.unit.disabled", 1);
  EXPECT_EQ(c.value(), 0u);
  {
    RESIPE_TELEM_SCOPE("test.unit.disabled_scope");
  }
  for (const auto& child : CallProfile::this_thread().root().children) {
    EXPECT_STRNE(child->name, "test.unit.disabled_scope");
  }
}

TEST_F(TelemetryTest, DisabledCodecPathsStayPure) {
  set_enabled(false);
  const resipe_core::SpikeCodec codec(circuits::CircuitParams{});
  const auto spike = codec.encode(0.5);
  EXPECT_NEAR(codec.decode(spike), 0.5, 0.05);
  const auto snap = MetricRegistry::instance().snapshot();
  EXPECT_EQ(snap.counters.count("resipe_core.spike_codec.encoded"), 0u);
}

// --- reliability instrumentation ---------------------------------------

namespace {
resipe_core::ProgrammedMatrix make_faulty_matrix() {
  resipe_core::EngineConfig ec;
  ec.reliability.enabled = true;
  ec.reliability.faults.stuck_lrs_rate = 0.02;
  ec.reliability.faults.stuck_hrs_rate = 0.02;
  ec.reliability.mitigation.enabled = true;
  ec.reliability.mitigation.spare_cols = 2;
  std::vector<double> w(16 * 4);
  Rng wrng(23);
  for (double& x : w) x = wrng.uniform(-1.0, 1.0);
  const std::vector<double> bias(4, 0.0);
  Rng rng(29);
  return resipe_core::ProgrammedMatrix(ec, w, bias, 16, 4, rng);
}
}  // namespace

// Compiles in BOTH telemetry build modes: with instrumentation compiled
// out (-DRESIPE_TELEMETRY=OFF) or runtime-disabled, the fault-injection
// and mitigation path must leave the registry untouched while its own
// statistics keep working.
TEST_F(TelemetryTest, DisabledReliabilityPathStaysPure) {
  set_enabled(false);
  const auto m = make_faulty_matrix();
  EXPECT_GT(m.reliability_stats().cells_faulty, 0u);
  const auto snap = MetricRegistry::instance().snapshot();
  EXPECT_EQ(snap.counters.count("reliability.cells_faulty"), 0u);
  EXPECT_EQ(snap.counters.count("reliability.write_verify_attempts"), 0u);
  EXPECT_EQ(snap.counters.count("reliability.cells_compensated"), 0u);
}

#ifndef RESIPE_TELEMETRY_DISABLED
TEST_F(TelemetryTest, ReliabilityCountersAggregateWhenEnabled) {
  const auto m = make_faulty_matrix();
  const auto snap = MetricRegistry::instance().snapshot();
  ASSERT_EQ(snap.counters.count("reliability.cells_faulty"), 1u);
  EXPECT_EQ(snap.counters.at("reliability.cells_faulty"),
            m.reliability_stats().cells_faulty);
  ASSERT_EQ(snap.counters.count("reliability.write_verify_attempts"), 1u);
  EXPECT_GT(snap.counters.at("reliability.write_verify_attempts"), 0u);
}
#endif  // !RESIPE_TELEMETRY_DISABLED

// --- nested timers ------------------------------------------------------

#ifndef RESIPE_TELEMETRY_DISABLED
TEST_F(TelemetryTest, NestedTimersBuildParentChildTree) {
  CallProfile::this_thread().reset();
  {
    RESIPE_TELEM_SCOPE("test.outer");
    {
      RESIPE_TELEM_SCOPE("test.inner");
    }
    {
      RESIPE_TELEM_SCOPE("test.inner");
    }
  }
  const ProfileNode& root = CallProfile::this_thread().root();
  ASSERT_EQ(root.children.size(), 1u);
  const ProfileNode& outer = *root.children[0];
  EXPECT_STREQ(outer.name, "test.outer");
  EXPECT_EQ(outer.count, 1u);
  ASSERT_EQ(outer.children.size(), 1u);
  const ProfileNode& inner = *outer.children[0];
  EXPECT_STREQ(inner.name, "test.inner");
  EXPECT_EQ(inner.count, 2u);
  // A parent span covers its children's time.
  EXPECT_GE(outer.total_ns, inner.total_ns);
  const std::string rendered = CallProfile::this_thread().render();
  EXPECT_NE(rendered.find("test.outer"), std::string::npos);
  EXPECT_NE(rendered.find("test.inner"), std::string::npos);
}

TEST_F(TelemetryTest, SiblingScopesDoNotNest) {
  CallProfile::this_thread().reset();
  {
    RESIPE_TELEM_SCOPE("test.first");
  }
  {
    RESIPE_TELEM_SCOPE("test.second");
  }
  const ProfileNode& root = CallProfile::this_thread().root();
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_TRUE(root.children[0]->children.empty());
  EXPECT_TRUE(root.children[1]->children.empty());
}

TEST_F(TelemetryTest, PoolWorkerSpansFoldUnderCallerSpan) {
  constexpr std::size_t kIters = 64;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> on_worker{false};
  const auto region = [&] {
    RESIPE_TELEM_SCOPE("test.pool.caller");
    parallel_for(
        kIters,
        [&](std::size_t) {
          RESIPE_TELEM_SCOPE("test.pool.item", WorkCost{2.0, 8.0});
          if (std::this_thread::get_id() != caller) {
            on_worker = true;
            return;
          }
          // The caller holds its item until a pool worker has taken one,
          // so every region really spans several threads.
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!on_worker && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        },
        4);
  };
  region();
  EXPECT_TRUE(on_worker.exchange(false));
  // A second region folds into the same node without re-adding the
  // first region's spans.
  region();
  EXPECT_TRUE(on_worker);

  const ProfileNode& root = CallProfile::this_thread().root();
  ASSERT_EQ(root.children.size(), 1u);
  const ProfileNode& outer = *root.children[0];
  EXPECT_STREQ(outer.name, "test.pool.caller");
  EXPECT_EQ(outer.count, 2u);
  ASSERT_EQ(outer.children.size(), 1u);
  const ProfileNode& item = *outer.children[0];
  EXPECT_STREQ(item.name, "test.pool.item");
  EXPECT_EQ(item.count, 2 * kIters);
  EXPECT_EQ(item.flops, 2.0 * 2 * kIters);
  EXPECT_EQ(item.bytes, 8.0 * 2 * kIters);

  // With telemetry off a region records and folds nothing.
  set_enabled(false);
  region();
  EXPECT_EQ(item.count, 2 * kIters);
  EXPECT_EQ(root.children.size(), 1u);
}
#endif  // !RESIPE_TELEMETRY_DISABLED

// --- trace export -------------------------------------------------------

#ifndef RESIPE_TELEMETRY_DISABLED
TEST_F(TelemetryTest, ChromeTraceParsesAndTimestampsAreOrdered) {
  TraceSession& session = TraceSession::instance();
  session.start();
  {
    RESIPE_TELEM_SCOPE("test.trace.outer");
    {
      RESIPE_TELEM_SCOPE("test.trace.inner");
    }
    RESIPE_TELEM_INSTANT("test.trace.marker");
  }
  session.stop();

  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string json = os.str();

  JsonValidator validator(json);
  EXPECT_TRUE(validator.parse()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("test.trace.outer"), std::string::npos);
  EXPECT_NE(json.find("test.trace.inner"), std::string::npos);
  EXPECT_NE(json.find("test.trace.marker"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);

  const auto ts = extract_ts(json);
  ASSERT_EQ(ts.size(), 3u);
  for (std::size_t i = 1; i < ts.size(); ++i) {
    EXPECT_LE(ts[i - 1], ts[i]) << "trace ts not monotonically ordered";
  }
}

TEST_F(TelemetryTest, TraceCapacityDropsInsteadOfGrowing) {
  TraceSession& session = TraceSession::instance();
  session.set_capacity(2);
  session.start();
  for (int i = 0; i < 5; ++i) {
    RESIPE_TELEM_SCOPE("test.trace.capped");
  }
  session.stop();
  EXPECT_EQ(session.snapshot().size(), 2u);
  EXPECT_EQ(session.dropped(), 3u);
  session.set_capacity(std::size_t{1} << 20);
}

TEST_F(TelemetryTest, AddEventIgnoresActiveFlagButHonorsCapacity) {
  // External exporters replay their own (virtual) clock after the fact:
  // a stopped session must still accept their events, but the capacity
  // cap and drop accounting apply like everywhere else.
  TraceSession& session = TraceSession::instance();
  session.start();  // clear
  session.stop();
  session.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    TraceEvent e;
    e.name = "replayed";
    e.ts_ns = static_cast<std::uint64_t>(i);
    e.pid = 2;
    e.tid = 7;
    session.add_event(e);
  }
  EXPECT_EQ(session.snapshot().size(), 3u);
  EXPECT_EQ(session.dropped(), 2u);
  session.set_capacity(std::size_t{1} << 20);
}

TEST_F(TelemetryTest, ThreadNameMetadataPrecedesEventsInChromeExport) {
  TraceSession& session = TraceSession::instance();
  session.start();  // clear
  session.stop();
  session.set_thread_name(2, 7, "serve lane");
  // First writer wins: a later rename must not clobber the label.
  session.set_thread_name(2, 7, "impostor");
  TraceEvent e;
  e.name = "replayed.span";
  e.pid = 2;
  e.tid = 7;
  session.add_event(e);

  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string json = os.str();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.parse()) << json;
  const std::size_t meta = json.find("thread_name");
  const std::size_t lane = json.find("serve lane");
  const std::size_t span = json.find("replayed.span");
  ASSERT_NE(meta, std::string::npos);
  ASSERT_NE(lane, std::string::npos);
  ASSERT_NE(span, std::string::npos);
  EXPECT_EQ(json.find("impostor"), std::string::npos);
  EXPECT_LT(meta, span) << "'M' metadata must precede the event stream";
}

TEST_F(TelemetryTest, PercentileSortedMatchesHistogramOnSampleBounds) {
  // THE percentile pin: percentile_sorted is histogram_percentile
  // specialized to one observation per bucket.  Feeding the sorted
  // samples as the bucket bounds must reproduce every quantile bit for
  // bit — this is what lets ServingStats, the SLO dashboard and the
  // metrics registry all claim the same "p99".
  const std::vector<double> samples = {0.001, 0.002, 0.002, 0.004,
                                       0.0075, 0.01,  0.02,  0.05, 0.31};
  MetricsSnapshot::HistogramData h;
  h.bounds = samples;
  h.buckets.assign(samples.size() + 1, 0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    h.buckets[i] = 1;
    h.sum += samples[i];
  }
  h.count = samples.size();
  h.min = samples.front();
  h.max = samples.back();

  for (int k = 0; k <= 100; ++k) {
    const double q = static_cast<double>(k) / 100.0;
    const double exact = percentile_sorted(samples, q);
    const double bucketed = histogram_percentile(h, q);
    EXPECT_EQ(exact, bucketed) << "q=" << q << " diverged";
  }
  // Contract edges: empty -> 0, single sample -> the sample.
  EXPECT_DOUBLE_EQ(percentile_sorted({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted({3.25}, 0.99), 3.25);
  EXPECT_DOUBLE_EQ(percentile_sorted(samples, 0.0), samples.front());
  EXPECT_DOUBLE_EQ(percentile_sorted(samples, 1.0), samples.back());
  // Unsorted input is a caller bug, surfaced immediately.
  EXPECT_THROW(percentile_sorted({2.0, 1.0}, 0.5), Error);
}

TEST_F(TelemetryTest, InstrumentedWorkloadCoversFourSubsystems) {
  // End-to-end: a small workload touching the device, crossbar,
  // resipe_core and eval layers must leave spans from all four in the
  // trace (the CLI acceptance path relies on this).
  TraceSession& session = TraceSession::instance();
  session.start();

  const circuits::CircuitParams params;
  const device::ReramSpec spec = device::ReramSpec::nn_mapping();
  const std::vector<double> w = {0.5, -0.25, 0.75, -1.0};
  const auto mapped =
      crossbar::map_weights(w, 2, 2, spec,
                            crossbar::SignedMapping::kDifferentialPair);
  resipe_core::ResipeTile tile(params, mapped.rows, mapped.cols, spec);
  Rng rng(7);
  tile.program(mapped.g_targets, rng);
  const resipe_core::SpikeCodec codec(params);
  const std::vector<circuits::Spike> in = {codec.encode(0.25),
                                           codec.encode(0.75)};
  (void)tile.execute(in);
  eval::CharacterizationConfig cfg;
  cfg.rows = 4;
  cfg.samples = 4;
  (void)eval::characterize(cfg);

  session.stop();
  const std::string json = [&session] {
    std::ostringstream os;
    session.write_chrome_trace(os);
    return os.str();
  }();
  EXPECT_NE(json.find("\"cat\":\"device\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"crossbar\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"resipe_core\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"eval\""), std::string::npos);
}
#endif  // !RESIPE_TELEMETRY_DISABLED

// --- metric export ------------------------------------------------------

TEST_F(TelemetryTest, MetricsJsonAndCsvExport) {
  MetricRegistry::instance().counter("test.export.counter").add(9);
  MetricRegistry::instance().gauge("test.export.gauge").set(3.5);
  MetricRegistry::instance()
      .histogram("test.export.hist", {1.0})
      .observe(0.5);

  std::ostringstream js;
  write_metrics_json(js);
  const std::string json = js.str();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.parse()) << json;
  EXPECT_NE(json.find("\"test.export.counter\":9"), std::string::npos);
  EXPECT_NE(json.find("test.export.gauge"), std::string::npos);
  EXPECT_NE(json.find("test.export.hist"), std::string::npos);

  // Percentile summaries ride along in the JSON histogram objects.
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"min\":"), std::string::npos);
  EXPECT_NE(json.find("\"max\":"), std::string::npos);

  std::ostringstream cs;
  write_metrics_csv(cs);
  const std::string csv = cs.str();
  EXPECT_NE(csv.find("metric,type,value"), std::string::npos);
  EXPECT_NE(csv.find("test.export.counter,counter,9"), std::string::npos);
  EXPECT_NE(csv.find("test.export.hist.count,histogram,1"),
            std::string::npos);
  EXPECT_NE(csv.find("test.export.hist.p95,histogram,0.5"),
            std::string::npos);
  EXPECT_NE(csv.find("test.export.hist.min,histogram,0.5"),
            std::string::npos);

  const std::string ascii = render_metrics_ascii();
  EXPECT_NE(ascii.find("p95"), std::string::npos);
  EXPECT_NE(ascii.find("test.export.hist"), std::string::npos);
  EXPECT_NE(ascii.find("test.export.counter"), std::string::npos);
}

TEST_F(TelemetryTest, MetricsJsonEscapesHostileNames) {
  MetricRegistry::instance().counter("test.\"quoted\"\\back\nline").add(1);
  std::ostringstream js;
  write_metrics_json(js);
  const std::string json = js.str();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.parse()) << json;
  EXPECT_NE(json.find(R"("test.\"quoted\"\\back\nline":1)"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace resipe::telemetry
