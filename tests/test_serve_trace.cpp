// Serving-trace tests: event-journal mechanics (bounded, drop-counted,
// never silently lossy), the span-conservation audit against hand-built
// violations and real scheduler runs (burst shed, full quarantine,
// retry exhaustion, mixed Poisson traffic), journal bit-identity across
// thread counts, the NDJSON / Chrome exporters, per-tenant SLO math and
// hash-based tenant assignment.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "resipe/common/parallel.hpp"
#include "resipe/nn/model.hpp"
#include "resipe/serve/pool.hpp"
#include "resipe/serve/scheduler.hpp"
#include "resipe/serve/slo.hpp"
#include "resipe/serve/trace.hpp"
#include "resipe/serve/traffic.hpp"
#include "resipe/telemetry/trace.hpp"

namespace {

using namespace resipe;
using resipe_core::EngineConfig;
using serve::ChipPool;
using serve::EventJournal;
using serve::RejectReason;
using serve::Request;
using serve::Response;
using serve::Scheduler;
using serve::ServeConfig;
using serve::ServeEvent;
using serve::ServeEventKind;
using serve::ServingStats;
using serve::TraceAudit;

/// Tiny MLP + calibration batch shared by the trace tests (mirrors the
/// fixture in test_serve.cpp).
struct Fixture {
  nn::Sequential model{"serve_trace_mlp"};
  nn::Tensor calibration{{8, 6}};

  Fixture() {
    Rng rng(11);
    model.emplace<nn::Dense>(6, 8, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::Dense>(8, 3, rng);
    for (double& v : calibration.data()) v = rng.uniform(0.0, 1.0);
  }

  static EngineConfig clean_config(std::uint64_t program_seed) {
    EngineConfig cfg;
    cfg.program_seed = program_seed;
    return cfg;
  }

  /// Heavily defective replica: 30% + 30% stuck cells and no spare
  /// columns, so every attempt gets fault-flagged (drives the retry
  /// path).
  static EngineConfig defective_config(std::uint64_t program_seed) {
    EngineConfig cfg = clean_config(program_seed);
    cfg.reliability.enabled = true;
    cfg.reliability.faults.stuck_lrs_rate = 0.3;
    cfg.reliability.faults.stuck_hrs_rate = 0.3;
    cfg.reliability.mitigation.spare_cols = 0;
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

/// Field-exact (bitwise for doubles) comparison of two event streams.
bool events_identical(const std::vector<ServeEvent>& a,
                      const std::vector<ServeEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].seq != b[i].seq ||
        a[i].request != b[i].request || a[i].tenant != b[i].tenant ||
        a[i].batch != b[i].batch || a[i].chip != b[i].chip ||
        a[i].attempt != b[i].attempt || a[i].code != b[i].code ||
        std::memcmp(&a[i].time, &b[i].time, sizeof(double)) != 0 ||
        std::memcmp(&a[i].value, &b[i].value, sizeof(double)) != 0 ||
        std::memcmp(&a[i].aux, &b[i].aux, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// --- EventJournal mechanics ------------------------------------------

TEST(EventJournal, BoundedRecordCountsDropsInsteadOfOverwriting) {
  EventJournal journal(4);
  EXPECT_EQ(journal.capacity(), 4u);
  EXPECT_EQ(journal.size(), 0u);

  for (int i = 0; i < 6; ++i) {
    ServeEvent e;
    e.time = static_cast<double>(i);
    e.request = static_cast<std::uint64_t>(i);
    journal.record(e);
  }
  // Four committed, two refused — counted, never silently lost, and the
  // committed prefix is the *first* four (no overwrite).
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.dropped(), 2u);
  const std::vector<ServeEvent> events = journal.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i) << "seq assigned in record order";
    EXPECT_EQ(events[i].request, i);
  }

  journal.clear();
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.dropped(), 0u);
  journal.record(ServeEvent{});
  EXPECT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal.events()[0].seq, 0u) << "seq restarts after clear";
}

// --- audit_trace on hand-built journals ------------------------------

namespace audit_fixture {

/// One clean single-request chain: admit -> batch -> dispatch ->
/// attempt -> complete, with the matching stats.
void clean_chain(EventJournal& journal, ServingStats& stats) {
  ServeEvent e;
  e.kind = ServeEventKind::kAdmit;
  e.request = 0;
  e.value = 1.0;
  journal.record(e);

  ServeEvent batch;
  batch.kind = ServeEventKind::kBatchForm;
  batch.batch = 0;
  batch.chip = 0;
  batch.value = 1.0;
  journal.record(batch);

  e.kind = ServeEventKind::kDispatch;
  e.batch = 0;
  e.chip = 0;
  e.attempt = 0;
  journal.record(e);

  e.kind = ServeEventKind::kAttemptDone;
  e.attempt = 1;
  journal.record(e);

  e.kind = ServeEventKind::kComplete;
  journal.record(e);

  stats = ServingStats{};
  stats.submitted = 1;
  stats.served_ok = 1;
  stats.batches = 1;
}

}  // namespace audit_fixture

TEST(TraceAuditTest, CleanChainPasses) {
  EventJournal journal;
  ServingStats stats;
  audit_fixture::clean_chain(journal, stats);
  const TraceAudit audit = serve::audit_trace(journal, stats);
  EXPECT_TRUE(audit.ok()) << audit.render();
  EXPECT_EQ(audit.requests, 1u);
  EXPECT_EQ(audit.terminals, 1u);
}

TEST(TraceAuditTest, DoubleTerminalIsReported) {
  EventJournal journal;
  ServingStats stats;
  audit_fixture::clean_chain(journal, stats);
  ServeEvent dup;
  dup.kind = ServeEventKind::kComplete;
  dup.request = 0;
  dup.attempt = 1;
  journal.record(dup);
  const TraceAudit audit = serve::audit_trace(journal, stats);
  EXPECT_FALSE(audit.ok());
}

TEST(TraceAuditTest, MissingTerminalIsReported) {
  EventJournal journal;
  ServeEvent e;
  e.kind = ServeEventKind::kAdmit;
  e.request = 0;
  journal.record(e);
  e.kind = ServeEventKind::kDispatch;
  e.batch = 0;
  e.chip = 0;
  journal.record(e);
  ServingStats stats;
  stats.submitted = 1;
  const TraceAudit audit = serve::audit_trace(journal, stats);
  EXPECT_FALSE(audit.ok()) << "open span chain must fail conservation";
}

TEST(TraceAuditTest, StatsMismatchIsReported) {
  EventJournal journal;
  ServingStats stats;
  audit_fixture::clean_chain(journal, stats);
  stats.served_ok = 2;  // journal says 1
  stats.submitted = 2;
  const TraceAudit audit = serve::audit_trace(journal, stats);
  EXPECT_FALSE(audit.ok());
}

TEST(TraceAuditTest, LossyJournalReportsItself) {
  EventJournal journal(2);
  ServingStats stats;
  audit_fixture::clean_chain(journal, stats);  // 5 records into 2 slots
  ASSERT_GT(journal.dropped(), 0u);
  const TraceAudit audit = serve::audit_trace(journal, stats);
  EXPECT_FALSE(audit.ok());
  EXPECT_EQ(audit.dropped, journal.dropped());
  ASSERT_FALSE(audit.issues.empty());
  EXPECT_NE(audit.issues[0].find("dropped"), std::string::npos)
      << "a lossy journal must say so, not report bogus chain breaks: "
      << audit.issues[0];
}

// --- span conservation on real scheduler runs ------------------------
//
// Each scenario builds a fresh pool (health persists across runs), runs
// with a journal attached, and must (a) pass the conservation audit
// against its own stats and (b) produce a bit-identical event stream at
// every thread count — the journal rides the virtual clock, not the
// host's.

struct ScenarioRun {
  std::vector<ServeEvent> events;
  ServingStats stats;
  std::vector<Response> responses;
};

template <typename Fn>
void expect_conserved_across_threads(Fn&& run_once, const char* what) {
  std::vector<ScenarioRun> runs;
  for (const std::size_t threads : {1, 2, 8}) {
    set_default_threads(threads);
    runs.push_back(run_once());
  }
  set_default_threads(0);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EventJournal replay;
    for (const ServeEvent& e : runs[i].events) replay.record(e);
    const TraceAudit audit = serve::audit_trace(replay, runs[i].stats);
    EXPECT_TRUE(audit.ok())
        << what << " (run " << i << "): " << audit.render();
    EXPECT_EQ(audit.requests, runs[i].responses.size()) << what;
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_TRUE(events_identical(runs[0].events, runs[i].events))
        << what << ": journal diverged at thread-count run " << i;
  }
}

TEST(SpanConservation, BurstShedsQueueFull) {
  Fixture fx;
  expect_conserved_across_threads(
      [&fx] {
        ServeConfig scfg;
        scfg.queue_capacity = 1;
        scfg.batch_window = 1.0;
        scfg.default_deadline = 10.0;
        const std::vector<EngineConfig> replicas = {Fixture::clean_config(1)};
        ChipPool pool(fx.model, fx.calibration, replicas, scfg);
        EventJournal journal;
        Scheduler scheduler(pool, scfg);
        scheduler.attach_journal(&journal);
        for (std::uint64_t i = 0; i < 4; ++i) {
          scheduler.submit(fx.request(i, 1.0e-6 * static_cast<double>(i + 1)));
        }
        ScenarioRun run;
        run.responses = scheduler.run();
        run.stats = scheduler.stats();
        run.events = journal.events();
        EXPECT_EQ(run.stats.shed_queue_full, 3u);
        return run;
      },
      "burst shed");
}

TEST(SpanConservation, AllChipsQuarantined) {
  Fixture fx;
  expect_conserved_across_threads(
      [&fx] {
        ServeConfig scfg;
        scfg.default_deadline = 10.0;
        const std::vector<EngineConfig> replicas = {Fixture::clean_config(1),
                                                    Fixture::clean_config(2)};
        ChipPool pool(fx.model, fx.calibration, replicas, scfg);
        pool.force_quarantine(0);
        pool.force_quarantine(1);
        EventJournal journal;
        Scheduler scheduler(pool, scfg);
        scheduler.attach_journal(&journal);
        for (std::uint64_t i = 0; i < 3; ++i) {
          scheduler.submit(fx.request(i, 1.0e-6 * static_cast<double>(i + 1)));
        }
        ScenarioRun run;
        run.responses = scheduler.run();
        run.stats = scheduler.stats();
        run.events = journal.events();
        EXPECT_EQ(run.stats.shed_quarantine, 3u);
        return run;
      },
      "full quarantine");
}

TEST(SpanConservation, RetryExhaustion) {
  Fixture fx;
  expect_conserved_across_threads(
      [&fx] {
        ServeConfig scfg;
        scfg.default_deadline = 10.0;
        scfg.retry_max = 2;
        const std::vector<EngineConfig> replicas = {
            Fixture::defective_config(3)};
        ChipPool pool(fx.model, fx.calibration, replicas, scfg);
        EventJournal journal;
        Scheduler scheduler(pool, scfg);
        scheduler.attach_journal(&journal);
        scheduler.submit(fx.request(0, 1.0e-6));
        ScenarioRun run;
        run.responses = scheduler.run();
        run.stats = scheduler.stats();
        run.events = journal.events();
        EXPECT_EQ(run.stats.retries, 2u);
        return run;
      },
      "retry exhaustion");
}

TEST(SpanConservation, MixedPoissonTrafficWithDefectiveReplica) {
  Fixture fx;
  serve::TrafficConfig traffic;
  traffic.rate = 5000.0;
  traffic.duration = 0.004;
  traffic.seed = 3;
  traffic.tenants = 3;
  const std::vector<Request> trace =
      serve::poisson_traffic(fx.calibration, traffic);
  ASSERT_FALSE(trace.empty());

  expect_conserved_across_threads(
      [&fx, &trace] {
        ServeConfig scfg;
        scfg.default_deadline = 0.01;
        scfg.batch_max = 3;
        scfg.retry_max = 2;
        const std::vector<EngineConfig> replicas = {
            Fixture::defective_config(3), Fixture::clean_config(5)};
        ChipPool pool(fx.model, fx.calibration, replicas, scfg);
        EventJournal journal;
        Scheduler scheduler(pool, scfg);
        scheduler.attach_journal(&journal);
        for (const Request& r : trace) scheduler.submit(r);
        ScenarioRun run;
        run.responses = scheduler.run();
        run.stats = scheduler.stats();
        run.events = journal.events();
        return run;
      },
      "mixed traffic");
}

// --- exporters -------------------------------------------------------

/// A small served-everything run shared by the exporter tests.
ScenarioRun clean_run(Fixture& fx, EventJournal& journal) {
  ServeConfig scfg;
  scfg.default_deadline = 10.0;
  scfg.batch_max = 3;
  const std::vector<EngineConfig> replicas = {Fixture::clean_config(5),
                                              Fixture::clean_config(6)};
  ChipPool pool(fx.model, fx.calibration, replicas, scfg);
  Scheduler scheduler(pool, scfg);
  scheduler.attach_journal(&journal);
  for (std::uint64_t i = 0; i < 8; ++i) {
    scheduler.submit(fx.request(i, 1.0e-6 * static_cast<double>(i + 1)));
  }
  ScenarioRun run;
  run.responses = scheduler.run();
  run.stats = scheduler.stats();
  run.events = journal.events();
  return run;
}

TEST(TraceExport, NdjsonHasSchemaHeaderEventsAndSummaryTrailer) {
  Fixture fx;
  EventJournal journal;
  const ScenarioRun run = clean_run(fx, journal);

  std::ostringstream os;
  serve::write_events_ndjson(journal, run.stats, os);
  std::istringstream is(os.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), journal.size() + 2)
      << "schema header + one line per event + summary trailer";
  EXPECT_NE(lines.front().find("resipe.serve.trace/1"), std::string::npos);
  EXPECT_NE(lines.front().find("\"events\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"summary\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"dropped\""), std::string::npos);
  // Every served request completed: the trailer must carry the bucket.
  EXPECT_NE(lines.back().find("\"served_ok\""), std::string::npos);
}

TEST(TraceExport, ChromeLanesAreNamedAndFlowsBalance) {
  Fixture fx;
  EventJournal journal;
  const ScenarioRun run = clean_run(fx, journal);
  ASSERT_EQ(run.stats.served_ok, run.responses.size());

  auto& session = telemetry::TraceSession::instance();
  session.start();  // clears any prior events
  session.stop();
  serve::export_chrome_trace(journal, session);

  const auto names = session.thread_names();
  ASSERT_TRUE(names.count({serve::kServePid, serve::kSchedulerLane}));
  ASSERT_TRUE(names.count({serve::kServePid, serve::kHealthLane}));
  ASSERT_TRUE(names.count({serve::kServePid, serve::kChipLaneBase}));

  const std::vector<telemetry::TraceEvent> events = session.snapshot();
  ASSERT_FALSE(events.empty());
  std::map<std::uint64_t, std::pair<int, int>> flows;  // id -> (s, f)
  for (const telemetry::TraceEvent& e : events) {
    // Every exported lane must carry a viewer name ('M' metadata rides
    // thread_names() at serialization time).
    EXPECT_TRUE(names.count({e.pid, e.tid}))
        << "unnamed lane pid=" << e.pid << " tid=" << e.tid << " for '"
        << e.name << "'";
    if (e.phase == 's') ++flows[e.flow_id].first;
    if (e.phase == 'f') ++flows[e.flow_id].second;
  }
  // One flow arrow per request, each with exactly one start + one end.
  EXPECT_EQ(flows.size(), run.responses.size());
  for (const auto& [id, counts] : flows) {
    EXPECT_EQ(counts.first, 1) << "flow " << id;
    EXPECT_EQ(counts.second, 1) << "flow " << id;
  }

  // The serialized form must carry the metadata for chrome://tracing.
  std::ostringstream os;
  session.write_chrome_trace(os);
  EXPECT_NE(os.str().find("thread_name"), std::string::npos);
}

// --- SLO / error-budget math -----------------------------------------

namespace slo_fixture {

Response response(std::uint64_t id, double arrival, double completion,
                  bool served, std::uint64_t tenant = 0) {
  Response r;
  r.id = id;
  r.tenant = tenant;
  r.arrival = arrival;
  r.completion = completion;
  if (served) {
    r.status = Response::Status::kOk;
    r.logits = {1.0, 0.0, 0.0};
  } else {
    r.status = Response::Status::kRejected;
    r.reason = RejectReason::kQueueFull;
  }
  return r;
}

}  // namespace slo_fixture

TEST(SloMonitorTest, BudgetsAndBurnRatesMatchHandComputedValues) {
  serve::SloConfig cfg;
  cfg.window = 0.005;
  cfg.latency_target = 0.01;
  // Objectives chosen so the allowed fractions (both 0.25) are exact in
  // binary floating point and the expectations below are exact too.
  cfg.availability_objective = 0.75;
  cfg.latency_objective = 0.75;
  cfg.min_window_count = 2;
  ASSERT_NO_THROW(cfg.validate());

  serve::SloMonitor monitor(cfg);
  // Eight terminals at 1 ms spacing: indices 2 and 3 served-but-slow
  // (50 ms latency), index 7 shed, the rest served fast (2 ms).
  for (std::uint64_t i = 0; i < 8; ++i) {
    const double t = 0.001 * static_cast<double>(i + 1);
    const bool served = i != 7;
    const double latency = (i == 2 || i == 3) ? 0.05 : 0.002;
    monitor.ingest(slo_fixture::response(i, t - latency, t, served), 0);
  }

  const serve::SloReport report = monitor.report();
  ASSERT_EQ(report.tenants.size(), 1u);
  const serve::SloTenantReport& r = report.tenants[0];
  EXPECT_EQ(r.requests, 8u);
  EXPECT_EQ(r.served, 7u);
  EXPECT_EQ(r.latency_ok, 5u);
  EXPECT_DOUBLE_EQ(r.availability_sli, 7.0 / 8.0);
  EXPECT_DOUBLE_EQ(r.latency_sli, 5.0 / 7.0);
  // budget_used = bad_fraction / (1 - objective).
  EXPECT_DOUBLE_EQ(r.availability_budget_used, (1.0 - 7.0 / 8.0) / 0.25);
  EXPECT_DOUBLE_EQ(r.latency_budget_used, (1.0 - 5.0 / 7.0) / 0.25);
  EXPECT_TRUE(r.availability_met());
  EXPECT_FALSE(r.latency_met()) << r.latency_budget_used;
  // Worst 5 ms window for availability: the shed at t=8ms among the six
  // samples in (3ms..8ms] -> (1/6)/0.25.  For latency the two slow
  // responses at t=3,4ms peak at 2 bad of 4 eligible -> (2/4)/0.25 = 2.
  EXPECT_DOUBLE_EQ(r.availability_burn_max, (1.0 / 6.0) / 0.25);
  EXPECT_DOUBLE_EQ(r.latency_burn_max, 2.0);
  // Served latencies {2ms x5, 50ms x2}: rank-mass interpolation keeps
  // p50 on the fast plateau and p99 on the slow tail.
  EXPECT_DOUBLE_EQ(r.p50, 0.002);
  EXPECT_DOUBLE_EQ(r.p99, 0.05);
  // Single tenant: the aggregate is the tenant row.
  EXPECT_EQ(report.total.requests, 8u);
  EXPECT_DOUBLE_EQ(report.total.availability_budget_used,
                   r.availability_budget_used);

  // The dashboard renders without throwing and names the tenant.
  EXPECT_NE(report.render().find("t0"), std::string::npos);
}

TEST(SloMonitorTest, MinWindowCountSuppressesNoiseBurn) {
  serve::SloConfig cfg;
  cfg.window = 0.005;
  cfg.availability_objective = 0.75;
  cfg.min_window_count = 20;  // more samples than the trace holds
  serve::SloMonitor monitor(cfg);
  for (std::uint64_t i = 0; i < 8; ++i) {
    monitor.ingest(slo_fixture::response(i, 0.0, 0.001 * (i + 1.0), i != 7),
                   0);
  }
  const serve::SloReport report = monitor.report();
  EXPECT_DOUBLE_EQ(report.tenants[0].availability_burn_max, 0.0)
      << "a near-empty window is noise, not an incident";
}

TEST(SloMonitorTest, SplitsPerTenantAndAggregates) {
  serve::SloConfig cfg;
  cfg.availability_objective = 0.75;
  serve::SloMonitor monitor(cfg);
  std::vector<Response> responses;
  // Tenant 1: 3 served.  Tenant 4: 1 served + 1 shed.
  responses.push_back(slo_fixture::response(0, 0.0, 0.001, true, 1));
  responses.push_back(slo_fixture::response(1, 0.0, 0.002, true, 1));
  responses.push_back(slo_fixture::response(2, 0.0, 0.003, true, 1));
  responses.push_back(slo_fixture::response(3, 0.0, 0.002, true, 4));
  responses.push_back(slo_fixture::response(4, 0.0, 0.004, false, 4));
  monitor.ingest(responses);

  const serve::SloReport report = monitor.report();
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].tenant, 1u);
  EXPECT_EQ(report.tenants[0].requests, 3u);
  EXPECT_DOUBLE_EQ(report.tenants[0].availability_sli, 1.0);
  EXPECT_EQ(report.tenants[1].tenant, 4u);
  EXPECT_EQ(report.tenants[1].requests, 2u);
  EXPECT_DOUBLE_EQ(report.tenants[1].availability_sli, 0.5);
  EXPECT_EQ(report.total.requests, 5u);
  EXPECT_EQ(report.total.served, 4u);

  monitor.clear();
  EXPECT_TRUE(monitor.report().tenants.empty());
}

TEST(SloConfigTest, ValidateRejectsNonsense) {
  serve::SloConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.window = 0.0;
  EXPECT_ANY_THROW(cfg.validate());
  cfg = serve::SloConfig{};
  cfg.latency_objective = 1.0;  // allowed fraction would be zero
  EXPECT_ANY_THROW(cfg.validate());
  cfg = serve::SloConfig{};
  cfg.availability_objective = 0.0;
  EXPECT_ANY_THROW(cfg.validate());
  cfg = serve::SloConfig{};
  cfg.latency_target = -1.0;
  EXPECT_ANY_THROW(cfg.validate());
}

// --- hash-based tenant assignment ------------------------------------

TEST(Traffic, TenantAssignmentIsDeterministicAndPerturbationFree) {
  Fixture fx;
  serve::TrafficConfig base;
  base.rate = 10000.0;
  base.duration = 0.01;
  base.seed = 9;
  base.tenants = 1;
  serve::TrafficConfig multi = base;
  multi.tenants = 4;

  const std::vector<Request> single = serve::poisson_traffic(fx.calibration,
                                                             base);
  const std::vector<Request> split = serve::poisson_traffic(fx.calibration,
                                                            multi);
  const std::vector<Request> again = serve::poisson_traffic(fx.calibration,
                                                            multi);
  ASSERT_FALSE(single.empty());
  ASSERT_EQ(single.size(), split.size())
      << "tenant count must not perturb the arrival process";

  std::map<std::uint64_t, std::size_t> histogram;
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].tenant, 0u);
    EXPECT_LT(split[i].tenant, 4u);
    EXPECT_EQ(split[i].tenant, again[i].tenant) << "hash must be stable";
    // Tenant is the ONLY field that may differ — arrivals, ids, inputs
    // and deadlines are untouched (bit-identity contract).
    EXPECT_EQ(single[i].id, split[i].id);
    EXPECT_EQ(std::memcmp(&single[i].arrival, &split[i].arrival,
                          sizeof(double)),
              0);
    EXPECT_EQ(single[i].tag, split[i].tag);
    EXPECT_EQ(single[i].input, split[i].input);
    ++histogram[split[i].tenant];
  }
  EXPECT_GT(histogram.size(), 1u)
      << "a long trace must actually spread across tenants";
}

}  // namespace
