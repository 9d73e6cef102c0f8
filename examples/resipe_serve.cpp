// resipe_serve — resilient-serving demo on a replicated chip pool.
//
// Trains a small MLP on synthetic digits, lowers it onto a pool of
// replica chips (optionally with one defective replica), offers an
// open-loop Poisson trace through the deadline-aware scheduler and
// prints the serving report: throughput, latency percentiles, shed
// accounting, per-chip health, and the accuracy of the answers that
// were actually served.
//
//   resipe_serve [--chips N] [--rate R] [--duration S] [--deadline S]
//                [--defects RATE] [--train N] [--images N] [--epochs N]
//                [--seed K] [--tenants N] [--out FILE]
//                [--trace FILE] [--events FILE]
//                [--slo-window S] [--slo-latency S]
//                [--slo-latency-obj F] [--slo-avail-obj F]
//
// Every run journals the full request lifecycle (serve/trace.hpp),
// verifies the span-conservation audit (exit 1 on violation — every
// offered request must have exactly one terminal event and the journal
// must reconcile with the stats), and renders the per-tenant SLO /
// error-budget dashboard.  --trace exports the journal as a Chrome
// trace (chrome://tracing / ui.perfetto.dev) with one lane per chip
// and flow arrows per request; --events exports the raw NDJSON that
// tools/trace_check.py validates in CI.
//
// Everything runs on the virtual clock, so the whole trace is
// deterministic and bit-identical at any thread count.
#include <cstdio>
#include <string>
#include <vector>

#include "resipe/common/file.hpp"
#include "resipe/common/flags.hpp"
#include "resipe/common/table.hpp"
#include "resipe/nn/zoo.hpp"
#include "resipe/resipe/network.hpp"
#include "resipe/serve/pool.hpp"
#include "resipe/serve/scheduler.hpp"
#include "resipe/serve/slo.hpp"
#include "resipe/serve/trace.hpp"
#include "resipe/serve/traffic.hpp"
#include "resipe/telemetry/trace.hpp"

namespace {

using namespace resipe;

constexpr FlagSpec kFlags[] = {
    {"--chips", "N"}, {"--rate", "R"}, {"--duration", "S"},
    {"--deadline", "S"}, {"--defects", "RATE"}, {"--train", "N"},
    {"--images", "N"}, {"--epochs", "N"}, {"--seed", "K"},
    {"--tenants", "N"}, {"--out", "FILE"}, {"--trace", "FILE"},
    {"--events", "FILE"}, {"--slo-window", "S"}, {"--slo-latency", "S"},
    {"--slo-latency-obj", "F"}, {"--slo-avail-obj", "F"}};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags({argv + 1, argv + argc}, kFlags);
    const auto chips = flags.number<std::size_t>("--chips", 3);
    const double rate = flags.number("--rate", 2000.0);
    const double duration = flags.number("--duration", 0.05);
    const double deadline = flags.number("--deadline", 0.01);
    const double defects = flags.number("--defects", 0.0);
    const auto train_n = flags.number<std::size_t>("--train", 256);
    const auto test_n = flags.number<std::size_t>("--images", 96);
    const auto epochs = flags.number<std::size_t>("--epochs", 3);
    const auto seed = flags.number<std::uint64_t>("--seed", 42);
    const auto tenants = flags.number<std::uint64_t>("--tenants", 3);
    const std::string out = flags.text("--out");
    const std::string trace_out = flags.text("--trace");
    const std::string events_out = flags.text("--events");
    serve::SloConfig slo;
    slo.window = flags.number("--slo-window", 0.01);
    // Default latency target: half the deadline — "answered comfortably",
    // not "squeaked in".
    slo.latency_target = flags.number("--slo-latency", deadline / 2.0);
    slo.latency_objective = flags.number("--slo-latency-obj", 0.95);
    slo.availability_objective = flags.number("--slo-avail-obj", 0.99);
    if (chips == 0 || rate <= 0.0 || duration <= 0.0 || deadline <= 0.0 ||
        train_n == 0 || test_n == 0 || tenants == 0) {
      std::fprintf(stderr,
                   "--chips/--rate/--duration/--deadline/--train/--images/"
                   "--tenants must be positive\n");
      return 2;
    }

    // --- train a small model on synthetic digits.
    auto [model, test, calib, fit] = nn::train_benchmark(
        nn::BenchmarkNet::kMlp1,
        {.train_samples = train_n, .test_samples = test_n, .epochs = epochs});
    std::printf("trained %s: test acc %.3f\n", model.name().c_str(),
                fit->test_accuracy);

    // --- lower one replica per chip; chip 0 optionally defective.
    std::vector<resipe_core::EngineConfig> replica_configs;
    for (std::size_t c = 0; c < chips; ++c) {
      resipe_core::EngineConfig ec;
      ec.program_seed = hash_seed(seed, 0xC41Bull, c);
      if (defects > 0.0 && c == 0) {
        ec.reliability.enabled = true;
        ec.reliability.faults.stuck_lrs_rate = defects / 2.0;
        ec.reliability.faults.stuck_hrs_rate = defects / 2.0;
        ec.reliability.fault_seed = hash_seed(seed, 0xFA17ull, c);
      }
      replica_configs.push_back(ec);
    }

    serve::ServeConfig scfg;
    scfg.default_deadline = deadline;
    scfg.seed = seed;
    serve::ChipPool pool(model, calib, replica_configs, scfg);
    std::printf("pool: %zu replica(s), %s defective\n", pool.size(),
                defects > 0.0 ? "chip 0" : "none");

    // --- offer an open-loop Poisson trace of test images.
    serve::TrafficConfig traffic;
    traffic.rate = rate;
    traffic.duration = duration;
    traffic.seed = hash_seed(seed, 0x7AFFull);
    traffic.tenants = tenants;
    const std::vector<serve::Request> trace =
        serve::poisson_traffic(test.images, traffic);

    serve::EventJournal journal;
    serve::Scheduler scheduler(pool, scfg);
    scheduler.attach_journal(&journal);
    for (const serve::Request& r : trace) scheduler.submit(r);
    const std::vector<serve::Response> responses = scheduler.run();
    const serve::ServingStats& stats = scheduler.stats();

    std::printf("\n== serving report (rate %.0f req/s, %zu offered) ==\n",
                rate, responses.size());
    std::fputs(stats.render().c_str(), stdout);

    // --- served accuracy: join responses back to dataset labels.
    const double acc = serve::served_accuracy(responses, test.labels);
    const std::size_t served = stats.served_ok + stats.served_degraded;
    std::printf("served accuracy: %.3f (%.0f/%zu)\n", acc,
                acc * static_cast<double>(served), served);

    TextTable chip_table({"chip", "state", "probes", "quar", "readmit",
                          "batches", "requests", "canary miss",
                          "canary rmse"});
    for (std::size_t c = 0; c < pool.size(); ++c) {
      const serve::ChipStatus& st = pool.status(c);
      chip_table.add_row({std::to_string(c), serve::to_string(st.state),
                          std::to_string(st.probes),
                          std::to_string(st.quarantines),
                          std::to_string(st.readmissions),
                          std::to_string(st.batches_served),
                          std::to_string(st.requests_served),
                          format_percent(st.last_canary_mismatch),
                          format_fixed(st.last_canary_rmse, 4)});
    }
    std::puts("");
    std::fputs(chip_table.str().c_str(), stdout);

    // --- span-conservation audit: every offered request must close
    // with exactly one terminal event and the journal must reconcile
    // exactly with the stats above.  A violation is a scheduler bug,
    // so it fails the run.
    const serve::TraceAudit audit = serve::audit_trace(journal, stats);
    std::puts("");
    std::fputs(audit.render().c_str(), stdout);
    if (!audit.ok()) {
      std::fprintf(stderr, "trace audit failed\n");
      return 1;
    }

    // --- per-tenant SLO / error-budget dashboard.
    serve::SloMonitor monitor(slo);
    monitor.ingest(responses);
    const serve::SloReport slo_report = monitor.report();
    std::puts("");
    std::fputs(slo_report.render().c_str(), stdout);

    if (!events_out.empty()) {
      serve::write_events_ndjson_file(journal, stats, events_out);
      std::printf("wrote %s (%zu events, %zu dropped)\n",
                  events_out.c_str(), journal.size(), journal.dropped());
    }
    if (!trace_out.empty()) {
      auto& session = telemetry::TraceSession::instance();
      serve::export_chrome_trace(journal, session);
      session.write_chrome_trace_file(trace_out);
      std::printf("wrote %s\n", trace_out.c_str());
    }

    if (!out.empty()) {
      write_file(out, [&](std::ostream& os) {
        os << "{\n"
           << "  \"offered\": " << stats.submitted << ",\n"
           << "  \"served_ok\": " << stats.served_ok << ",\n"
           << "  \"served_degraded\": " << stats.served_degraded << ",\n"
           << "  \"shed_queue_full\": " << stats.shed_queue_full << ",\n"
           << "  \"shed_deadline\": " << stats.shed_deadline << ",\n"
           << "  \"shed_quarantine\": " << stats.shed_quarantine << ",\n"
           << "  \"late_completions\": " << stats.late_completions << ",\n"
           << "  \"retries\": " << stats.retries << ",\n"
           << "  \"batches\": " << stats.batches << ",\n"
           << "  \"mean_batch\": " << stats.mean_batch << ",\n"
           << "  \"shed_rate\": " << stats.shed_rate() << ",\n"
           << "  \"throughput_rps\": " << stats.throughput << ",\n"
           << "  \"latency_p50_s\": " << stats.p50 << ",\n"
           << "  \"latency_p95_s\": " << stats.p95 << ",\n"
           << "  \"latency_p99_s\": " << stats.p99 << ",\n"
           << "  \"served_accuracy\": " << acc << ",\n"
           << "  \"healthy_chips\": " << pool.healthy_count() << ",\n"
           << "  \"pool_size\": " << pool.size() << ",\n"
           << "  \"trace_events\": " << journal.size() << ",\n"
           << "  \"trace_dropped\": " << journal.dropped() << ",\n"
           << "  \"audit_ok\": " << (audit.ok() ? "true" : "false") << ",\n"
           << "  \"tenants\": " << tenants << ",\n"
           << "  \"slo_availability_budget_used\": "
           << slo_report.total.availability_budget_used << ",\n"
           << "  \"slo_latency_budget_used\": "
           << slo_report.total.latency_budget_used << ",\n"
           << "  \"slo_availability_burn_max\": "
           << slo_report.total.availability_burn_max << ",\n"
           << "  \"slo_latency_burn_max\": "
           << slo_report.total.latency_burn_max << "\n"
           << "}\n";
      });
      std::printf("wrote %s\n", out.c_str());
    }
  } catch (const FlagError& e) {
    std::fprintf(stderr, "error: %s\nusage: %s %s\n", e.what(), argv[0],
                 flag_synopsis(kFlags).c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
