// bench_serving — open-loop Poisson saturation sweep + failover study.
//
// Part 1 (graceful degradation): offers Poisson traffic at a ladder of
// rates spanning the pool's computed capacity and reports, per rate,
// the served throughput, shed rate and latency percentiles of the
// *admitted* requests.  The acceptance shape: past the knee the p99 of
// admitted requests stays bounded (the deadline sheds the tail) while
// the shed rate — reported, never silent — absorbs the overload.
//
// Part 2 (failover): the same pool with one replica carrying injected
// stuck-at defects and hair-trigger health thresholds.  The canary
// probes quarantine the bad replica, retries reroute the in-flight
// work, and the served accuracy must stay within 0.5% of the
// fault-free pool.
//
// Part 3 (tracing & SLO): a traced run at the knee with three tenants
// must pass the span-conservation audit; the SLO monitor scores it
// into error-budget figures, and the journal's wall-clock overhead is
// measured against an untraced twin (budget: < 2%).
//
// Everything runs on the virtual clock, so every figure is
// deterministic and thread-count invariant.
//
//   bench_serving [--quick] [--duration S] [--train N] [--images N]
//                 [--epochs N] [--seed K] [--json FILE]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "resipe/common/table.hpp"
#include "resipe/nn/train.hpp"
#include "resipe/nn/zoo.hpp"
#include "resipe/resipe/network.hpp"
#include "resipe/serve/pool.hpp"
#include "resipe/serve/scheduler.hpp"
#include "resipe/serve/slo.hpp"
#include "resipe/serve/trace.hpp"
#include "resipe/serve/traffic.hpp"
#include "resipe/telemetry/timer.hpp"

namespace {

using namespace resipe;

struct RunResult {
  serve::ServingStats stats;
  double accuracy = 0.0;  ///< over served responses, joined via tag
  std::vector<serve::Response> responses;
  std::uint64_t run_ns = 0;  ///< wall-clock of scheduler.run() alone
};

RunResult run_trace(serve::ChipPool& pool, const serve::ServeConfig& scfg,
                    const nn::Dataset& data, double rate, double duration,
                    std::uint64_t traffic_seed,
                    serve::EventJournal* journal = nullptr,
                    std::uint64_t tenants = 1) {
  serve::TrafficConfig traffic;
  traffic.rate = rate;
  traffic.duration = duration;
  traffic.seed = traffic_seed;
  traffic.tenants = tenants;
  const std::vector<serve::Request> trace =
      serve::poisson_traffic(data.images, traffic);

  serve::Scheduler scheduler(pool, scfg);
  scheduler.attach_journal(journal);
  for (const serve::Request& r : trace) scheduler.submit(r);
  const std::uint64_t t0 = telemetry::now_ns();
  std::vector<serve::Response> responses = scheduler.run();

  RunResult out;
  out.run_ns = telemetry::now_ns() - t0;
  out.stats = scheduler.stats();
  out.accuracy = serve::served_accuracy(responses, data.labels);
  out.responses = std::move(responses);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("serving", argc, argv,
                            {{"--quick"}, {"--duration", "S"}, {"--train", "N"},
                             {"--images", "N"}, {"--epochs", "N"},
                             {"--seed", "K"}});
  const bool quick = report.has("--quick");
  const double duration = report.number("--duration", quick ? 0.02 : 0.1);
  const auto train_n =
      report.number<std::size_t>("--train", quick ? 128 : 256);
  const auto test_n = report.number<std::size_t>("--images", quick ? 64 : 128);
  const auto epochs = report.number<std::size_t>("--epochs", quick ? 2 : 3);
  const auto seed = report.number<std::uint64_t>("--seed", 42);
  constexpr std::size_t kChips = 3;

  try {
    // --- one trained model shared by every experiment.
    auto [model, test, calib, fit] = nn::train_benchmark(
        nn::BenchmarkNet::kMlp1,
        {.train_samples = train_n, .test_samples = test_n, .epochs = epochs});
    std::printf("model %s: test acc %.3f\n", model.name().c_str(),
                fit->test_accuracy);

    const auto clean_config = [&](std::size_t c) {
      resipe_core::EngineConfig ec;
      ec.program_seed = hash_seed(seed, 0xC41Bull, c);
      return ec;
    };

    // ================= part 1: saturation sweep =================
    serve::ServeConfig scfg;
    scfg.seed = seed;
    std::vector<resipe_core::EngineConfig> clean_pool_cfg;
    for (std::size_t c = 0; c < kChips; ++c)
      clean_pool_cfg.push_back(clean_config(c));
    serve::ChipPool pool(model, calib, clean_pool_cfg, scfg);

    // Pool capacity from the chips' own service model: full batches
    // back to back on every replica.
    const double batch_s = pool.service_time(0, scfg.batch_max);
    const double capacity = static_cast<double>(kChips) *
                            static_cast<double>(scfg.batch_max) / batch_s;
    std::printf("pool capacity ~%.0f req/s (%zu chips, batch %zu in %.1f us)\n",
                capacity, kChips, scfg.batch_max, batch_s * 1e6);

    // The chips are fast (µs-scale batches), so an uncapped sweep at a
    // multiple of capacity would offer millions of requests.  Cap the
    // offered count per run by shortening the trace, not by sampling —
    // the rate (and therefore the queueing behavior) is unchanged.
    const double max_requests = quick ? 4000.0 : 40000.0;
    const auto capped_duration = [&](double rate) {
      return std::min(duration, max_requests / rate);
    };

    const std::vector<double> load_factors =
        quick ? std::vector<double>{0.5, 1.0, 4.0}
              : std::vector<double>{0.25, 0.5, 1.0, 2.0, 4.0, 8.0};
    TextTable sweep({"load", "rate req/s", "offered", "served", "shed",
                     "shed rate", "p50 ms", "p99 ms", "served req/s"});
    double below_knee_p99 = 0.0, above_knee_p99 = 0.0;
    double max_shed_rate = 0.0, peak_throughput = 0.0;
    for (const double f : load_factors) {
      const double rate = f * capacity;
      const RunResult r = run_trace(pool, scfg, test, rate,
                                    capped_duration(rate),
                                    hash_seed(seed, 0x7AFFull));
      const serve::ServingStats& s = r.stats;
      sweep.add_row({format_fixed(f, 2), format_si(rate, "req/s"),
                     std::to_string(s.submitted),
                     std::to_string(s.served_ok + s.served_degraded),
                     std::to_string(s.shed()), format_percent(s.shed_rate()),
                     format_fixed(s.p50 * 1e3, 3),
                     format_fixed(s.p99 * 1e3, 3), format_si(s.throughput, "req/s")});
      if (f <= 0.5) below_knee_p99 = std::max(below_knee_p99, s.p99);
      if (f >= 2.0) above_knee_p99 = std::max(above_knee_p99, s.p99);
      max_shed_rate = std::max(max_shed_rate, s.shed_rate());
      peak_throughput = std::max(peak_throughput, s.throughput);
    }
    std::puts("\n== saturation sweep ==");
    std::fputs(sweep.str().c_str(), stdout);
    std::printf(
        "p99 of admitted stays bounded past the knee: %.3f ms "
        "(deadline %.0f ms); overload is shed explicitly (max %.1f%%)\n",
        above_knee_p99 * 1e3, scfg.default_deadline * 1e3,
        max_shed_rate * 100.0);

    // ================= part 2: failover study =================
    // Same pool shape; replica 0 carries 1% stuck cells and the health
    // thresholds are tight enough for the canaries to catch it.
    const double study_rate = 0.5 * capacity;
    const double study_duration = capped_duration(study_rate);
    serve::ServeConfig fcfg = scfg;
    fcfg.health.canary_period = study_duration / 20.0;
    fcfg.health.max_canary_mismatch = 0.10;
    fcfg.health.logit_rmse_limit = 0.25;
    fcfg.health.quarantine_after = 1;

    std::vector<resipe_core::EngineConfig> faulty_pool_cfg = clean_pool_cfg;
    faulty_pool_cfg[0].reliability.enabled = true;
    faulty_pool_cfg[0].reliability.faults.stuck_lrs_rate = 0.005;
    faulty_pool_cfg[0].reliability.faults.stuck_hrs_rate = 0.005;
    faulty_pool_cfg[0].reliability.fault_seed = hash_seed(seed, 0xFA17ull);

    serve::ChipPool clean_ref(model, calib, clean_pool_cfg, fcfg);
    serve::ChipPool faulty(model, calib, faulty_pool_cfg, fcfg);
    const RunResult clean_run =
        run_trace(clean_ref, fcfg, test, study_rate, study_duration,
                  hash_seed(seed, 0x7AFFull));
    const RunResult faulty_run =
        run_trace(faulty, fcfg, test, study_rate, study_duration,
                  hash_seed(seed, 0x7AFFull));

    const double acc_delta = clean_run.accuracy - faulty_run.accuracy;
    std::size_t quarantines = 0;
    for (std::size_t c = 0; c < faulty.size(); ++c)
      quarantines += faulty.status(c).quarantines;
    std::puts("\n== failover study (1% stuck cells on replica 0) ==");
    TextTable fo({"pool", "served", "retries", "served acc", "quarantines",
                  "healthy"});
    fo.add_row({"clean",
                std::to_string(clean_run.stats.served_ok +
                               clean_run.stats.served_degraded),
                std::to_string(clean_run.stats.retries),
                format_fixed(clean_run.accuracy, 4), "0",
                std::to_string(clean_ref.healthy_count())});
    fo.add_row({"1% defects",
                std::to_string(faulty_run.stats.served_ok +
                               faulty_run.stats.served_degraded),
                std::to_string(faulty_run.stats.retries),
                format_fixed(faulty_run.accuracy, 4),
                std::to_string(quarantines),
                std::to_string(faulty.healthy_count())});
    std::fputs(fo.str().c_str(), stdout);
    std::printf("served accuracy delta vs clean pool: %+.4f (budget 0.005)\n",
                acc_delta);

    // ============ part 3: lifecycle tracing & SLO scorecard ============
    // One traced run at the knee with three tenants: the journal must
    // pass the span-conservation audit (deterministic, so a failure
    // here is a real scheduler bug, not flakiness), and the SLO monitor
    // scores the same responses into error-budget figures.
    const double slo_rate = 1.0 * capacity;
    const double slo_duration = capped_duration(slo_rate);
    serve::EventJournal journal;
    serve::ChipPool slo_pool(model, calib, clean_pool_cfg, scfg);
    const RunResult traced =
        run_trace(slo_pool, scfg, test, slo_rate, slo_duration,
                  hash_seed(seed, 0x7AFFull), &journal, /*tenants=*/3);
    const serve::TraceAudit audit = serve::audit_trace(journal, traced.stats);
    std::puts("\n== lifecycle trace & SLO (load 1.0, 3 tenants) ==");
    std::fputs(audit.render().c_str(), stdout);
    if (!audit.ok()) {
      std::fprintf(stderr, "trace audit failed\n");
      return 1;
    }

    serve::SloConfig slo;
    slo.window = slo_duration / 10.0;
    slo.latency_target = scfg.default_deadline / 2.0;
    serve::SloMonitor monitor(slo);
    monitor.ingest(traced.responses);
    const serve::SloReport slo_report = monitor.report();
    std::fputs(slo_report.render().c_str(), stdout);

    // Tracing overhead: the same trace through identically-evolving
    // pools with and without a journal attached, min-of-reps wall
    // clock.  The acceptance budget is < 2% — one slot write per
    // lifecycle edge against inference-dominated service.
    const std::size_t reps = quick ? 5 : 9;
    serve::ChipPool plain_pool(model, calib, clean_pool_cfg, scfg);
    serve::ChipPool traced_pool(model, calib, clean_pool_cfg, scfg);
    std::uint64_t plain_ns = ~std::uint64_t{0};
    std::uint64_t traced_ns = ~std::uint64_t{0};
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const RunResult off =
          run_trace(plain_pool, scfg, test, slo_rate, slo_duration,
                    hash_seed(seed, 0x7AFFull));
      serve::EventJournal j;
      const RunResult on =
          run_trace(traced_pool, scfg, test, slo_rate, slo_duration,
                    hash_seed(seed, 0x7AFFull), &j);
      plain_ns = std::min(plain_ns, off.run_ns);
      traced_ns = std::min(traced_ns, on.run_ns);
    }
    const double overhead_frac =
        plain_ns > 0 ? (static_cast<double>(traced_ns) -
                        static_cast<double>(plain_ns)) /
                           static_cast<double>(plain_ns)
                     : 0.0;
    std::printf(
        "tracing overhead: %.2f%% (run %.3f ms untraced vs %.3f ms "
        "traced, %zu events; budget 2%%)\n",
        overhead_frac * 100.0, static_cast<double>(plain_ns) * 1e-6,
        static_cast<double>(traced_ns) * 1e-6, journal.size());

    report.add("pool_capacity_rps", capacity);
    report.add("peak_served_rps", peak_throughput);
    report.add("p99_below_knee_ms", below_knee_p99 * 1e3);
    report.add("p99_above_knee_ms", above_knee_p99 * 1e3);
    report.add("max_shed_rate", max_shed_rate);
    report.add("failover_acc_clean", clean_run.accuracy);
    report.add("failover_acc_faulty", faulty_run.accuracy);
    report.add("failover_acc_delta", acc_delta);
    report.add("failover_quarantines", static_cast<double>(quarantines));
    report.add("failover_retries",
               static_cast<double>(faulty_run.stats.retries));
    report.add("trace_events", static_cast<double>(journal.size()));
    report.add("trace_dropped", static_cast<double>(journal.dropped()));
    report.add("trace_overhead_frac", overhead_frac);
    report.add("slo_availability_budget_used",
               slo_report.total.availability_budget_used);
    report.add("slo_latency_budget_used",
               slo_report.total.latency_budget_used);
    report.add("slo_availability_burn_max",
               slo_report.total.availability_burn_max);
    report.add("slo_latency_burn_max", slo_report.total.latency_burn_max);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return report.emit();
}
