// Umbrella header + instrumentation macros.
//
// Hot paths instrument through these macros so a build with
// -DRESIPE_TELEMETRY_DISABLED (CMake: -DRESIPE_TELEMETRY=OFF) compiles
// them away entirely.  In an instrumented build every macro first checks
// `telemetry::enabled()` — one relaxed atomic load — so the disabled-at-
// runtime cost is a predictable branch.
//
//   RESIPE_TELEM_SCOPE("resipe_core.tile.execute");       // RAII span
//   RESIPE_TELEM_SCOPE("resipe_core.fast_mvm.mvm_times",
//                      perf::fast_mvm_cost(rows, cols));  // span + work
//   RESIPE_TELEM_WORK("resipe_core.spike_codec.encode",
//                     perf::spike_encode_cost());         // work only
//   RESIPE_TELEM_COUNT("device.reram.program_ops", 1);    // counter +=
//   RESIPE_TELEM_GAUGE("eval.yield.last_rmse", rmse);     // gauge =
//   RESIPE_TELEM_OBSERVE("crossbar.solve_s", dt, 1e-6, 1e-3, 1.0);
//   RESIPE_TELEM_INSTANT("eval.yield.sigma_done");        // trace marker
//
// Metric names follow `subsystem.component.metric`.  A cost expression
// is only evaluated when telemetry is on; its work lands in the call
// tree (timer.hpp) next to the span's time.
#pragma once

#include "resipe/telemetry/metrics.hpp"
#include "resipe/telemetry/timer.hpp"
#include "resipe/telemetry/trace.hpp"

#if defined(RESIPE_TELEMETRY_DISABLED)

// Constant-folds the whole instrumented branch away in -OFF builds.
#define RESIPE_TELEM_ACTIVE() false

#define RESIPE_TELEM_SCOPE(name, ...) \
  do {                                \
  } while (false)
// sizeof keeps the cost's operands referenced without evaluating them.
#define RESIPE_TELEM_WORK(name, ...)   \
  do {                                 \
    (void)sizeof(__VA_ARGS__);         \
  } while (false)
#define RESIPE_TELEM_COUNT(name, n) \
  do {                              \
  } while (false)
#define RESIPE_TELEM_GAUGE(name, v) \
  do {                              \
  } while (false)
#define RESIPE_TELEM_OBSERVE(name, v, ...) \
  do {                                     \
  } while (false)
#define RESIPE_TELEM_INSTANT(name) \
  do {                             \
  } while (false)

#else

#define RESIPE_TELEM_CONCAT_IMPL(a, b) a##b
#define RESIPE_TELEM_CONCAT(a, b) RESIPE_TELEM_CONCAT_IMPL(a, b)

// Guard for hand-rolled instrumented blocks: lets ns-scale hot paths
// collect event flags locally and pay exactly one predicted branch for
// all their bookkeeping.
#define RESIPE_TELEM_ACTIVE() (::resipe::telemetry::enabled())

#define RESIPE_TELEM_SCOPE(name, ...)                                    \
  ::resipe::telemetry::ScopedTimer RESIPE_TELEM_CONCAT(                  \
      resipe_telem_scope_, __LINE__)(name __VA_OPT__(, [&]() noexcept {  \
    return ::resipe::telemetry::WorkCost(__VA_ARGS__);                   \
  }))

#define RESIPE_TELEM_WORK(name, ...)                                       \
  do {                                                                     \
    if (::resipe::telemetry::enabled()) {                                  \
      ::resipe::telemetry::book_work(name, __VA_ARGS__);                   \
    }                                                                      \
  } while (false)

#define RESIPE_TELEM_COUNT(name, n)                                        \
  do {                                                                     \
    if (::resipe::telemetry::enabled()) {                                  \
      static ::resipe::telemetry::Counter& resipe_telem_counter_ =         \
          ::resipe::telemetry::MetricRegistry::instance().counter(name);   \
      ::resipe::telemetry::counter_add(resipe_telem_counter_,              \
                                       static_cast<std::uint64_t>(n));     \
    }                                                                      \
  } while (false)

#define RESIPE_TELEM_GAUGE(name, v)                                        \
  do {                                                                     \
    if (::resipe::telemetry::enabled()) {                                  \
      static ::resipe::telemetry::Gauge& resipe_telem_gauge_ =             \
          ::resipe::telemetry::MetricRegistry::instance().gauge(name);     \
      resipe_telem_gauge_.set(static_cast<double>(v));                     \
    }                                                                      \
  } while (false)

#define RESIPE_TELEM_OBSERVE(name, v, ...)                                 \
  do {                                                                     \
    if (::resipe::telemetry::enabled()) {                                  \
      static ::resipe::telemetry::Histogram& resipe_telem_hist_ =          \
          ::resipe::telemetry::MetricRegistry::instance().histogram(       \
              name, {__VA_ARGS__});                                        \
      resipe_telem_hist_.observe(static_cast<double>(v));                  \
    }                                                                      \
  } while (false)

#define RESIPE_TELEM_INSTANT(name)                                         \
  do {                                                                     \
    if (::resipe::telemetry::TraceSession::instance().active()) {          \
      ::resipe::telemetry::TraceSession::instance().instant(name);         \
    }                                                                      \
  } while (false)

#endif  // RESIPE_TELEMETRY_DISABLED
