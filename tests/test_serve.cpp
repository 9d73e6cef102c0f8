// Serving-layer tests: ServeConfig validation, admission control and
// deadline edge cases, retry exhaustion, health state machine,
// identity with the direct engine path, and determinism.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <limits>
#include <string>

#include "resipe/common/error.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/nn/model.hpp"
#include "resipe/resipe/network.hpp"
#include "resipe/serve/pool.hpp"
#include "resipe/serve/scheduler.hpp"
#include "resipe/serve/traffic.hpp"

namespace {

using namespace resipe;
using resipe_core::EngineConfig;
using resipe_core::ResipeNetwork;
using serve::ChipPool;
using serve::ChipState;
using serve::RejectReason;
using serve::Request;
using serve::Response;
using serve::Scheduler;
using serve::ServeConfig;

/// Tiny MLP + calibration batch shared by the pool tests.
struct Fixture {
  nn::Sequential model{"serve_test_mlp"};
  nn::Tensor calibration{{8, 6}};

  Fixture() {
    Rng rng(11);
    model.emplace<nn::Dense>(6, 8, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::Dense>(8, 3, rng);
    for (double& v : calibration.data()) v = rng.uniform(0.0, 1.0);
  }

  /// A clean replica config (reliability off, fast defaults).
  static EngineConfig clean_config(std::uint64_t program_seed) {
    EngineConfig cfg;
    cfg.program_seed = program_seed;
    return cfg;
  }

  /// A heavily defective replica: faults injected, mitigation crippled
  /// and a hair-trigger degrade threshold so outputs get flagged.
  static EngineConfig defective_config(std::uint64_t program_seed) {
    EngineConfig cfg = clean_config(program_seed);
    cfg.reliability.enabled = true;
    cfg.reliability.faults.stuck_lrs_rate = 0.3;
    cfg.reliability.faults.stuck_hrs_rate = 0.3;
    cfg.reliability.mitigation.spare_cols = 0;
    cfg.reliability.mitigation.remap_columns = false;
    cfg.reliability.mitigation.compensate_pairs = false;
    cfg.reliability.mitigation.degrade_threshold = 0.01;
    cfg.reliability.fault_seed = 0xBADull + program_seed;
    return cfg;
  }

  Request request(std::uint64_t id, double arrival,
                  double deadline = 0.0) const {
    Request req;
    req.id = id;
    req.tag = id % calibration.dim(0);
    req.arrival = arrival;
    req.deadline = deadline;
    const auto row = calibration.data().subspan(req.tag * 6, 6);
    req.input.assign(row.begin(), row.end());
    return req;
  }
};

bool responses_identical(const std::vector<Response>& a,
                         const std::vector<Response>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].status != b[i].status ||
        a[i].reason != b[i].reason || a[i].attempts != b[i].attempts ||
        a[i].chip != b[i].chip ||
        std::memcmp(&a[i].completion, &b[i].completion, sizeof(double)) !=
            0 ||
        a[i].logits.size() != b[i].logits.size()) {
      return false;
    }
    if (!a[i].logits.empty() &&
        std::memcmp(a[i].logits.data(), b[i].logits.data(),
                    a[i].logits.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// --- ServeConfig validation (the domain the fuzzer's generator draws
// serving configs from) ------------------------------------------------

TEST(ServeConfig, ValidateRejectsEachBadKnob) {
  EXPECT_NO_THROW(ServeConfig{}.validate());
  ServeConfig ceiling;
  ceiling.retry_max = ServeConfig::kRetryCeiling;
  EXPECT_NO_THROW(ceiling.validate());

  using Break = void (*)(ServeConfig&);
  const Break breaks[] = {
      // A zero-capacity queue cannot serve.
      [](ServeConfig& c) { c.queue_capacity = 0; },
      [](ServeConfig& c) { c.batch_max = 0; },
      [](ServeConfig& c) { c.default_deadline = 0.0; },
      [](ServeConfig& c) { c.default_deadline = -1.0; },
      [](ServeConfig& c) { c.retry_max = -1; },
      [](ServeConfig& c) { c.retry_max = ServeConfig::kRetryCeiling + 1; },
      [](ServeConfig& c) { c.backoff_base = 0.0; },
      [](ServeConfig& c) { c.backoff_multiplier = 0.5; },
      [](ServeConfig& c) { c.backoff_max = c.backoff_base / 2.0; },
      [](ServeConfig& c) { c.backoff_jitter = 1.5; },
      [](ServeConfig& c) { c.health.canary_period = 0.0; },
      [](ServeConfig& c) { c.health.canary_images = 0; },
      [](ServeConfig& c) { c.health.max_canary_mismatch = 1.5; },
      [](ServeConfig& c) { c.health.quarantine_after = 0; },
      [](ServeConfig& c) { c.health.readmit_after = 0; },
  };
  for (std::size_t i = 0; i < std::size(breaks); ++i) {
    ServeConfig cfg;
    breaks[i](cfg);
    EXPECT_THROW(cfg.validate(), Error) << "break " << i;
  }
}

TEST(ServeConfig, ZeroCapacityQueueRejectedAtPoolConstruction) {
  Fixture fx;
  ServeConfig scfg;
  scfg.queue_capacity = 0;
  const std::vector<EngineConfig> replicas = {Fixture::clean_config(1)};
  EXPECT_THROW(ChipPool(fx.model, fx.calibration, replicas, scfg), Error);
}

// --- identity and determinism ----------------------------------------

TEST(Scheduler, ServedLogitsMatchDirectForward) {
  Fixture fx;
  ServeConfig scfg;
  scfg.default_deadline = 10.0;  // slack: nothing can expire
  const EngineConfig cfg = Fixture::clean_config(5);
  std::vector<EngineConfig> replicas = {cfg, cfg};
  ChipPool pool(fx.model, fx.calibration, replicas, scfg);
  const ResipeNetwork direct(fx.model, cfg, fx.calibration);

  constexpr std::size_t kN = 8;
  Scheduler scheduler(pool, scfg);
  nn::Tensor batch({kN, 6});
  for (std::size_t i = 0; i < kN; ++i) {
    const Request req = fx.request(i, 1.0e-6 * static_cast<double>(i));
    std::copy(req.input.begin(), req.input.end(),
              batch.data().begin() + static_cast<std::ptrdiff_t>(i * 6));
    scheduler.submit(req);
  }
  const std::vector<Response> responses = scheduler.run();
  const nn::Tensor want = direct.forward(batch);

  ASSERT_EQ(responses.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(responses[i].status, Response::Status::kOk)
        << "request " << i << ": " << serve::to_string(responses[i].reason);
    ASSERT_EQ(responses[i].logits.size(), 3u);
    EXPECT_EQ(std::memcmp(responses[i].logits.data(),
                          want.data().data() + i * 3, 3 * sizeof(double)),
              0)
        << "served logits differ from direct forward at request " << i;
  }
}

TEST(Scheduler, DeterministicAcrossRunsAndThreadCounts) {
  Fixture fx;
  ServeConfig scfg;
  scfg.default_deadline = 10.0;
  scfg.batch_max = 3;
  const std::vector<EngineConfig> replicas = {Fixture::clean_config(5),
                                              Fixture::clean_config(6)};
  ChipPool pool(fx.model, fx.calibration, replicas, scfg);

  serve::TrafficConfig traffic;
  traffic.rate = 5000.0;
  traffic.duration = 0.004;
  traffic.seed = 3;
  const std::vector<Request> trace =
      serve::poisson_traffic(fx.calibration, traffic);
  ASSERT_FALSE(trace.empty());

  std::vector<std::vector<Response>> runs;
  for (const std::size_t threads : {1, 2, 8, 1}) {
    set_default_threads(threads);
    Scheduler scheduler(pool, scfg);
    for (const Request& r : trace) scheduler.submit(r);
    runs.push_back(scheduler.run());
  }
  set_default_threads(0);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_TRUE(responses_identical(runs[0], runs[i]))
        << "run " << i << " diverged";
  }
}

TEST(Traffic, PoissonTraceIsDeterministicAndInRange) {
  Fixture fx;
  serve::TrafficConfig cfg;
  cfg.rate = 10000.0;
  cfg.duration = 0.01;
  cfg.seed = 9;
  const auto a = serve::poisson_traffic(fx.calibration, cfg);
  const auto b = serve::poisson_traffic(fx.calibration, cfg);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  double prev = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].input, b[i].input);
    EXPECT_GE(a[i].arrival, prev);
    EXPECT_LT(a[i].arrival, cfg.duration);
    EXPECT_EQ(a[i].input.size(), 6u);
    prev = a[i].arrival;
  }
}

TEST(Traffic, ServedAccuracyJoinsResponsesToLabels) {
  const std::vector<int> labels = {2, 0, 1};
  const auto response = [](std::uint64_t id, std::uint64_t tag,
                           Response::Status status,
                           std::vector<double> logits) {
    Response r;
    r.id = id;
    r.tag = tag;
    r.status = status;
    r.logits = std::move(logits);
    return r;
  };
  std::vector<Response> responses = {
      response(0, 0, Response::Status::kOk, {0.1, 0.2, 0.9}),        // hit
      response(1, 1, Response::Status::kOk, {0.1, 0.8, 0.3}),        // miss
      response(2, 2, Response::Status::kDegraded, {0.0, 0.5, 0.4}),  // hit
      response(3, 1, Response::Status::kRejected, {}),  // does not count
  };
  EXPECT_DOUBLE_EQ(serve::served_accuracy(responses, labels), 2.0 / 3.0);
  EXPECT_EQ(serve::served_accuracy({responses[3]}, labels), 0.0);
  EXPECT_EQ(serve::served_accuracy({}, labels), 0.0);
  // A rejected response's tag is never read; a served one's must be a
  // row of the labels.
  responses[3].tag = 99;
  EXPECT_DOUBLE_EQ(serve::served_accuracy(responses, labels), 2.0 / 3.0);
  responses[1].tag = 3;
  try {
    serve::served_accuracy(responses, labels);
    ADD_FAILURE() << "accepted tag 3 of 3 labels";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("response 1 "), std::string::npos)
        << e.what();
  }
}

// --- admission-control edge cases ------------------------------------

TEST(Scheduler, DeadlineExpiredAtAdmissionIsShed) {
  Fixture fx;
  ServeConfig scfg;
  const std::vector<EngineConfig> replicas = {Fixture::clean_config(1)};
  ChipPool pool(fx.model, fx.calibration, replicas, scfg);

  Scheduler scheduler(pool, scfg);
  // Absolute deadline equal to the arrival time: already expired.
  scheduler.submit(fx.request(0, /*arrival=*/1.0e-3, /*deadline=*/1.0e-3));
  const auto responses = scheduler.run();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, Response::Status::kRejected);
  EXPECT_EQ(responses[0].reason, RejectReason::kDeadlineExpired);
  EXPECT_EQ(responses[0].attempts, 0u);
  EXPECT_TRUE(responses[0].logits.empty());
}

// A NaN pixel would be served as a silent input and +Inf as full
// scale: both are refused at submit, like a wrong input size.
TEST(Scheduler, NonFinitePayloadIsRefusedAtSubmit) {
  Fixture fx;
  ServeConfig scfg;
  const std::vector<EngineConfig> replicas = {Fixture::clean_config(1)};
  ChipPool pool(fx.model, fx.calibration, replicas, scfg);
  Scheduler scheduler(pool, scfg);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    Request req = fx.request(7, 1.0e-3);
    req.input[4] = bad;
    try {
      scheduler.submit(req);
      ADD_FAILURE() << "accepted input " << bad;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("request 7 "), std::string::npos) << what;
      EXPECT_NE(what.find("input[4]"), std::string::npos) << what;
    }
  }
  EXPECT_TRUE(scheduler.run().empty());  // nothing was buffered
}

TEST(Scheduler, BurstOverCapacityShedsQueueFull) {
  Fixture fx;
  ServeConfig scfg;
  scfg.queue_capacity = 1;
  scfg.batch_window = 1.0;  // hold the queued request far past the burst
  scfg.default_deadline = 10.0;
  const std::vector<EngineConfig> replicas = {Fixture::clean_config(1)};
  ChipPool pool(fx.model, fx.calibration, replicas, scfg);

  Scheduler scheduler(pool, scfg);
  for (std::uint64_t i = 0; i < 4; ++i) {
    scheduler.submit(fx.request(i, 1.0e-6 * static_cast<double>(i + 1)));
  }
  const auto responses = scheduler.run();
  ASSERT_EQ(responses.size(), 4u);
  // First request occupies the queue for the whole window; the burst
  // behind it is shed with the explicit queue-full reason.
  EXPECT_TRUE(responses[0].served());
  std::size_t shed = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    if (responses[i].status == Response::Status::kRejected) {
      EXPECT_EQ(responses[i].reason, RejectReason::kQueueFull);
      ++shed;
    }
  }
  EXPECT_EQ(shed, 3u);
  EXPECT_EQ(scheduler.stats().shed_queue_full, 3u);
}

TEST(Scheduler, AllChipsQuarantinedShedsWithoutDeadlock) {
  Fixture fx;
  ServeConfig scfg;
  scfg.default_deadline = 10.0;
  const std::vector<EngineConfig> replicas = {Fixture::clean_config(1),
                                              Fixture::clean_config(2)};
  ChipPool pool(fx.model, fx.calibration, replicas, scfg);
  pool.force_quarantine(0);
  pool.force_quarantine(1);
  ASSERT_EQ(pool.healthy_count(), 0u);

  Scheduler scheduler(pool, scfg);
  for (std::uint64_t i = 0; i < 3; ++i) {
    scheduler.submit(fx.request(i, 1.0e-6 * static_cast<double>(i + 1)));
  }
  const auto responses = scheduler.run();  // must terminate
  ASSERT_EQ(responses.size(), 3u);
  for (const Response& r : responses) {
    EXPECT_EQ(r.status, Response::Status::kRejected);
    EXPECT_EQ(r.reason, RejectReason::kAllChipsQuarantined);
  }
  EXPECT_EQ(scheduler.stats().shed_quarantine, 3u);
}

// --- retry / failover -------------------------------------------------

TEST(Scheduler, RetryExhaustionSurfacesLastFaultFlags) {
  Fixture fx;
  ServeConfig scfg;
  scfg.default_deadline = 10.0;
  scfg.retry_max = 2;
  const std::vector<EngineConfig> replicas = {Fixture::defective_config(3)};
  ChipPool pool(fx.model, fx.calibration, replicas, scfg);
  // Precondition: the replica really does flag outputs as degraded.
  nn::Tensor probe({1, 6});
  for (std::size_t j = 0; j < 6; ++j) probe[j] = fx.calibration[j];
  (void)pool.infer(0, probe);
  ASSERT_GT(pool.degraded_outputs(0), 0u)
      << "fixture must produce fault-flagged outputs";

  Scheduler scheduler(pool, scfg);
  scheduler.submit(fx.request(0, 1.0e-6));
  const auto responses = scheduler.run();
  ASSERT_EQ(responses.size(), 1u);
  // Only one (defective) replica: every retry lands on the same chip,
  // the budget runs out, and the final answer carries the fault flags.
  EXPECT_EQ(responses[0].status, Response::Status::kDegraded);
  EXPECT_EQ(responses[0].attempts, 3u);  // 1 try + retry_max retries
  EXPECT_GT(responses[0].degraded_outputs, 0u);
  EXPECT_FALSE(responses[0].logits.empty());
  EXPECT_EQ(scheduler.stats().retries, 2u);
}

TEST(Scheduler, RetryFailsOverToCleanReplica) {
  Fixture fx;
  ServeConfig scfg;
  scfg.default_deadline = 10.0;
  scfg.retry_max = 2;
  scfg.batch_max = 1;
  const std::vector<EngineConfig> replicas = {Fixture::defective_config(3),
                                              Fixture::clean_config(4)};
  ChipPool pool(fx.model, fx.calibration, replicas, scfg);

  Scheduler scheduler(pool, scfg);
  scheduler.submit(fx.request(0, 1.0e-6));
  const auto responses = scheduler.run();
  ASSERT_EQ(responses.size(), 1u);
  // First attempt on chip 0 (lowest index) is fault-flagged; the retry
  // excludes chip 0 and lands clean on chip 1.
  EXPECT_EQ(responses[0].status, Response::Status::kOk);
  EXPECT_EQ(responses[0].chip, 1u);
  EXPECT_EQ(responses[0].attempts, 2u);
  EXPECT_EQ(responses[0].degraded_outputs, 0u);
}

// --- health state machine --------------------------------------------

TEST(ChipPool, DefectiveChipQuarantinesAndCleanChipSurvives) {
  Fixture fx;
  ServeConfig scfg;
  // Rely on the RMSE criterion alone: tight enough to catch the heavily
  // defective replica, loose enough that the clean replica's programming
  // noise (vs the golden reference) stays under it.
  scfg.health.max_canary_mismatch = 1.0;
  scfg.health.logit_rmse_limit = 0.1;
  scfg.health.quarantine_after = 2;
  const std::vector<EngineConfig> replicas = {Fixture::defective_config(3),
                                              Fixture::clean_config(1)};
  ChipPool pool(fx.model, fx.calibration, replicas, scfg);

  // Round 1: the defective chip fails its probe but is not yet out.
  EXPECT_EQ(pool.run_probe_round(), 0u);
  EXPECT_EQ(pool.status(0).state, ChipState::kHealthy);
  EXPECT_EQ(pool.status(0).consecutive_failed, 1u);
  // Round 2: quarantine_after consecutive failures -> quarantined.
  EXPECT_EQ(pool.run_probe_round(), 1u);
  EXPECT_EQ(pool.status(0).state, ChipState::kQuarantined);
  EXPECT_EQ(pool.status(0).quarantines, 1u);
  // The clean replica stays in rotation throughout.
  EXPECT_EQ(pool.status(1).state, ChipState::kHealthy);
  EXPECT_EQ(pool.healthy_count() + 1, pool.size());
}

TEST(ChipPool, QuarantinedChipReadmitsAfterCleanProbes) {
  Fixture fx;
  ServeConfig scfg;
  scfg.health.readmit_after = 3;
  const std::vector<EngineConfig> replicas = {Fixture::clean_config(1)};
  ChipPool pool(fx.model, fx.calibration, replicas, scfg);

  pool.force_quarantine(0);
  EXPECT_EQ(pool.status(0).state, ChipState::kQuarantined);
  EXPECT_EQ(pool.healthy_count(), 0u);
  // Clean probes accumulate; readmission on the third.
  EXPECT_EQ(pool.run_probe_round(), 0u);
  EXPECT_EQ(pool.run_probe_round(), 0u);
  EXPECT_EQ(pool.status(0).state, ChipState::kQuarantined);
  EXPECT_EQ(pool.run_probe_round(), 1u);
  EXPECT_EQ(pool.status(0).state, ChipState::kHealthy);
  EXPECT_EQ(pool.status(0).readmissions, 1u);
  EXPECT_EQ(pool.healthy_count(), 1u);
}

// --- stats roll-up ----------------------------------------------------

TEST(ServingStats, SummarizeCountsAndPercentiles) {
  std::vector<Response> responses(4);
  for (std::size_t i = 0; i < 4; ++i) {
    responses[i].id = i;
    responses[i].arrival = static_cast<double>(i);
    responses[i].completion = static_cast<double>(i) + 0.001 * (i + 1);
    responses[i].status = Response::Status::kOk;
    responses[i].attempts = 1;
    responses[i].logits = {0.0};
  }
  responses[3].status = Response::Status::kRejected;
  responses[3].reason = RejectReason::kQueueFull;
  responses[3].attempts = 0;
  responses[3].logits.clear();

  const serve::ServingStats s = serve::summarize(responses);
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.served_ok, 3u);
  EXPECT_EQ(s.shed_queue_full, 1u);
  EXPECT_EQ(s.shed(), 1u);
  EXPECT_DOUBLE_EQ(s.shed_rate(), 0.25);
  // Latencies 1/2/3 ms through the repo-wide interpolated percentile
  // (telemetry::percentile_sorted): rank q*n bracketed and lerped.
  EXPECT_NEAR(s.p50, 0.0015, 1e-12);   // rank 1.5 between 1 and 2 ms
  EXPECT_NEAR(s.p99, 0.00297, 1e-12);  // rank 2.97 between 2 and 3 ms
  EXPECT_NEAR(s.max_latency, 0.003, 1e-12);
}

}  // namespace
