// Process-wide metric registry: named counters, gauges and fixed-bucket
// histograms.
//
// Metrics follow the `subsystem.component.metric` naming scheme (e.g.
// "device.reram.program_ops").  Instrumentation sites use the macros in
// telemetry.hpp, which compile to nothing when RESIPE_TELEMETRY_DISABLED
// is defined and to a cached-pointer fast path otherwise.  At runtime the
// whole subsystem is gated by `telemetry::enabled()`: off by default,
// switched on programmatically (set_enabled) or via the RESIPE_TELEMETRY
// environment variable ("1"/"on" enables, "0"/"off" disables).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace resipe::telemetry {

namespace detail {
/// -1 = unresolved, 0 = disabled, 1 = enabled.
extern std::atomic<int> g_enabled;
/// Resolves the RESIPE_TELEMETRY environment variable (slow path, runs
/// at most a handful of times under races).
bool resolve_enabled() noexcept;
}  // namespace detail

/// True when instrumentation should record.  First call resolves the
/// RESIPE_TELEMETRY environment variable; subsequent calls are a single
/// relaxed atomic load, cheap enough for ns-scale hot paths.
inline bool enabled() noexcept {
  const int state = detail::g_enabled.load(std::memory_order_relaxed);
  if (state >= 0) return state != 0;
  return detail::resolve_enabled();
}

/// Overrides the environment toggle for this process.
void set_enabled(bool on) noexcept;

/// Monotonically increasing event count.  Thread-safe.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Thread-local batch of pending counter increments.  The parallel
/// runtime installs one per worker around each parallel region (via
/// resipe::set_parallel_hooks); RESIPE_TELEM_COUNT then accumulates
/// into plain non-atomic cells and the shard drains into the shared
/// atomics exactly once, at pool join.  The hot path stays free of
/// cross-thread cache traffic and totals are independent of how work
/// was scheduled.
class CounterShard {
 public:
  /// Accumulates locally.  Regions touch a handful of distinct
  /// counters, so a linear pointer scan beats hashing.
  void add(Counter& c, std::uint64_t n) {
    for (Cell& cell : cells_) {
      if (cell.counter == &c) {
        cell.pending += n;
        return;
      }
    }
    cells_.push_back(Cell{&c, n});
  }

  /// Adds every pending cell to its shared counter and zeroes it.
  void flush() noexcept {
    for (Cell& cell : cells_) {
      if (cell.pending > 0) cell.counter->add(cell.pending);
      cell.pending = 0;
    }
  }

 private:
  struct Cell {
    Counter* counter;
    std::uint64_t pending;
  };
  std::vector<Cell> cells_;
};

namespace detail {
/// Shard installed on the calling thread while it participates in a
/// parallel region; nullptr otherwise.
extern thread_local CounterShard* t_counter_shard;
}  // namespace detail

/// Hot-path counter increment: routes through the thread's shard when
/// one is installed (inside a parallel region), else hits the shared
/// atomic directly.
inline void counter_add(Counter& c, std::uint64_t n) {
  if (CounterShard* shard = detail::t_counter_shard) {
    shard->add(c, n);
  } else {
    c.add(n);
  }
}

/// Last-write-wins instantaneous value.  Thread-safe.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram.  Bucket i counts observations <= bounds[i];
/// one implicit overflow bucket catches the rest.  Tracks the exact
/// min/max observed so percentile estimates can clamp the open-ended
/// first and overflow buckets.  Thread-safe.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest value observed; 0 when the histogram is empty.
  double min() const noexcept;
  double max() const noexcept;
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Point-in-time copy of every registered metric, for export.
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Process-wide registry.  Lookup registers on first use and returns a
/// reference whose address stays valid for the life of the process, so
/// call sites may cache it.  reset_values() zeroes every metric but never
/// removes entries (cached references stay safe).
class MetricRegistry {
 public:
  static MetricRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` is only consulted on first registration of `name`.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  MetricsSnapshot snapshot() const;
  void reset_values();

 private:
  MetricRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Exact-sample percentile (q in [0, 1]) over an ascending-sorted value
/// vector.  This is THE percentile convention of the repo: the same
/// rank-mass linear interpolation `histogram_percentile` applies to
/// bucketed data, specialized to one sample per bucket — feeding the
/// sorted samples of a dataset as the bucket bounds of a histogram
/// yields bit-identical percentiles (pinned by a shared test).  Every
/// exact-sample consumer (ServingStats latency percentiles, SLO
/// windows) routes through here so "p99" means one thing everywhere.
/// Contract: empty -> 0, single sample -> the sample, q=0 -> min,
/// q=1 -> max.
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Estimates the q-th quantile (q in [0, 1]) of a bucketed histogram by
/// linear interpolation inside the bucket holding the q-th observation.
/// The open-ended first and overflow buckets are clamped to the exact
/// observed min/max, so p0 == min and p100 == max.  Edge cases are
/// part of the contract: an empty histogram returns 0 for every q, and
/// a single-sample histogram returns that observation (recovered from
/// `sum`) for every q.
double histogram_percentile(const MetricsSnapshot::HistogramData& h,
                            double q);

/// Percentile summary derived from a histogram snapshot.  Contract for
/// degenerate inputs: count == 0 -> all fields zero (inf/-inf
/// accumulation sentinels never leak); count == 1 -> mean, min, max and
/// every percentile equal the single observation.
struct HistogramSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};
HistogramSummary summarize_histogram(const MetricsSnapshot::HistogramData& h);

/// Writes the registry snapshot as a flat JSON document.  Histograms
/// carry min/max and p50/p95/p99 percentile summaries next to their
/// raw buckets.
void write_metrics_json(std::ostream& os);
void write_metrics_json_file(const std::string& path);

/// Renders the registry snapshot as aligned ASCII tables (counters,
/// gauges, histogram percentile summaries) via common/table.
std::string render_metrics_ascii();

/// Writes the registry snapshot as CSV (metric,type,value rows) through
/// common::CsvWriter.  Histograms flatten to `<name>.le_<bound>` rows
/// plus `<name>.count` / `<name>.sum`.
void write_metrics_csv(std::ostream& os);
void write_metrics_csv_file(const std::string& path);

}  // namespace resipe::telemetry
