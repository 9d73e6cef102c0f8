// Event-driven vs dense execution: the activity crossover.
//
// With EngineConfig::events on, each row window of the matrix forward
// loop visits only the rows that carry a spike in some sample, so the
// current-sum work scales with the *activity fraction* (share of inputs
// that actually spike) instead of the layer width.  S2 and column
// recovery still run for every block, silent or not.  This bench
// sweeps the activity fraction under two activity shapes and times
// both paths on the same programmed matrix, one vector per call:
//
//   banded  — the active inputs are contiguous (the shape im2col
//             produces when whole input channels are silent): entire
//             32-row windows fall silent and run S2 over no rows.
//   random  — the same activity scattered uniformly: windows rarely
//             fall silent, so only the skipped rows inside them help,
//             and the dense SIMD kernel wins until activity is low.
//
// Both paths are bit-identical by construction; the exit code asserts
// it on every sweep point.  The only question is where the crossover
// sits.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/common/table.hpp"
#include "resipe/resipe/network.hpp"

namespace {

using resipe::Rng;
using resipe::resipe_core::EngineConfig;
using resipe::resipe_core::ProgrammedMatrix;

constexpr std::size_t kIn = 512;   // 16 row blocks at 32-row tiles
constexpr std::size_t kOut = 128;  // 4 column blocks at 32-col tiles
constexpr std::size_t kReps = 300;

/// Builds one activity pattern: `fraction` of the kIn inputs carry a
/// value in (0, 1], the rest are exactly 0.0 (the codec's silent-row
/// encoding).  Banded packs the active inputs at the front; random
/// scatters them.
std::vector<double> make_input(double fraction, bool banded, Rng& rng) {
  std::vector<double> x(kIn, 0.0);
  const auto active =
      static_cast<std::size_t>(std::ceil(fraction * static_cast<double>(kIn)));
  if (banded) {
    for (std::size_t i = 0; i < active && i < kIn; ++i) {
      x[i] = rng.uniform(0.05, 1.0);
    }
  } else {
    // Exactly `active` hits via a partial Fisher-Yates over the index
    // space — keeps the two shapes at identical event counts.
    std::vector<std::size_t> idx(kIn);
    for (std::size_t i = 0; i < kIn; ++i) idx[i] = i;
    for (std::size_t i = 0; i < active && i < kIn; ++i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(i),
                          static_cast<std::int64_t>(kIn) - 1));
      std::swap(idx[i], idx[j]);
      x[idx[i]] = rng.uniform(0.05, 1.0);
    }
  }
  return x;
}

double time_forward_us(const ProgrammedMatrix& pm,
                       const std::vector<double>& x,
                       std::vector<double>& y) {
  // Warm-up settles the thread-local workspace allocations.
  pm.forward(x, y);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < kReps; ++r) pm.forward(x, y);
  const double total_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return total_s / static_cast<double>(kReps) * 1.0e6;
}

/// Linear interpolation of the activity where speedup crosses 1.0,
/// scanning from sparse to dense.  Returns 1.0 when the event path
/// never loses, 0.0 when it never wins.
double crossover(const std::vector<double>& activity,
                 const std::vector<double>& speedup) {
  double result = 0.0;
  for (std::size_t i = 0; i < activity.size(); ++i) {
    if (speedup[i] < 1.0) continue;
    if (i == 0) return 1.0;  // wins even at full activity
    const double a1 = activity[i - 1], a2 = activity[i];
    const double s1 = speedup[i - 1], s2 = speedup[i];
    result = (s2 == s1) ? a2 : a1 + (1.0 - s1) / (s2 - s1) * (a2 - a1);
    break;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resipe;
  bench::BenchReport report("event_engine", argc, argv);

  EngineConfig dense_cfg;
  dense_cfg.tile_rows = 32;
  dense_cfg.tile_cols = 32;
  EngineConfig event_cfg = dense_cfg;
  event_cfg.events.enabled = true;
  report.set_config(event_cfg);

  // Identical seeds => identical programmed conductances, so the two
  // paths disagree only if the row lists are wrong.
  Rng rng_a(7), rng_b(7), rng_x(8);
  std::vector<double> w(kIn * kOut), b(kOut);
  for (double& v : w) v = rng_a.uniform(-0.5, 0.5);
  for (double& v : b) v = rng_a.uniform(-0.2, 0.2);
  {
    // Replay the same weight draws on rng_b so the programming streams
    // stay aligned.
    std::vector<double> scratch(kIn * kOut + kOut);
    for (double& v : scratch) v = rng_b.uniform(-0.5, 0.5);
  }
  const ProgrammedMatrix pm_dense(dense_cfg, w, b, kIn, kOut, rng_a);
  const ProgrammedMatrix pm_event(event_cfg, w, b, kIn, kOut, rng_b);

  std::printf("=== Event-driven vs dense: activity sweep (%zux%zu, "
              "tile 32x32, %zu reps) ===\n\n",
              kIn, kOut, kReps);

  const std::vector<double> activities = {1.0, 0.5, 0.25, 0.1, 0.05, 0.02};
  TextTable t({"Activity", "Pattern", "Dense us", "Event us", "Speedup",
               "Events"});
  bool identical = true;
  for (const bool banded : {true, false}) {
    std::vector<double> speedups;
    for (const double activity : activities) {
      const std::vector<double> x = make_input(activity, banded, rng_x);
      std::size_t events = 0;
      for (const double v : x) events += v > 0.0 ? 1 : 0;

      std::vector<double> y_dense(kOut), y_event(kOut);
      const double dense_us = time_forward_us(pm_dense, x, y_dense);
      const double event_us = time_forward_us(pm_event, x, y_event);
      identical &= std::memcmp(y_dense.data(), y_event.data(),
                               kOut * sizeof(double)) == 0;

      const double speedup = dense_us / event_us;
      speedups.push_back(speedup);
      char pct[16], d_us[24], e_us[24], sp[16];
      std::snprintf(pct, sizeof pct, "%.0f%%", activity * 100.0);
      std::snprintf(d_us, sizeof d_us, "%.2f", dense_us);
      std::snprintf(e_us, sizeof e_us, "%.2f", event_us);
      std::snprintf(sp, sizeof sp, "%.2fx", speedup);
      t.add_row({pct, banded ? "banded" : "random", d_us, e_us, sp,
                 std::to_string(events)});

      const std::string tag = (banded ? std::string("banded_act")
                                      : std::string("random_act")) +
                              std::to_string(static_cast<int>(
                                  std::lround(activity * 100.0)));
      report.add("speedup_" + tag, speedup);
      if (banded) {
        report.add("event_us_" + tag, event_us);
        if (activity == 1.0) report.add("dense_us_act100", dense_us);
        if (activity == 0.1) {
          report.add("events_per_inference_act10",
                     static_cast<double>(events));
        }
      }
    }
    report.add(banded ? "crossover_activity_banded"
                      : "crossover_activity_random",
               crossover(activities, speedups));
  }
  std::puts(t.str().c_str());
  if (!identical) {
    std::puts("ERROR: event path diverged from the dense reference");
    return 1;
  }
  std::puts("Banded activity leaves whole 32-row windows silent, so "
            "they run S2 alone;\nscattered activity only skips rows "
            "inside active windows and needs much\nlower activity to "
            "beat the dense SIMD kernel.");
  return report.emit();
}
