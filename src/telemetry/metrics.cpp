#include "resipe/telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "resipe/common/error.hpp"

namespace resipe::telemetry {

namespace {

int resolve_from_env() {
  const char* env = std::getenv("RESIPE_TELEMETRY");
  if (env == nullptr) return 0;  // off by default
  if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
      std::strcmp(env, "false") == 0) {
    return 0;
  }
  return 1;  // any other non-empty value enables
}

}  // namespace

namespace detail {

std::atomic<int> g_enabled{-1};

bool resolve_enabled() noexcept {
  int state = resolve_from_env();
  int expected = -1;
  // Another thread may have resolved (or set_enabled) concurrently; its
  // value wins.
  if (!g_enabled.compare_exchange_strong(expected, state,
                                         std::memory_order_relaxed)) {
    state = expected;
  }
  return state > 0;
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  RESIPE_REQUIRE(!bounds_.empty(), "histogram needs at least one bound");
  RESIPE_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                     std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                         bounds_.end(),
                 "histogram bounds must be strictly ascending");
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  double seen = min_.load(std::memory_order_relaxed);
  while (v < seen &&
         !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

double Histogram::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  RESIPE_REQUIRE(q >= 0.0 && q <= 1.0,
                 "percentile must be in [0, 1], got " << q);
  RESIPE_REQUIRE(std::is_sorted(sorted.begin(), sorted.end()),
                 "percentile_sorted needs ascending-sorted input");
  const std::size_t n = sorted.size();
  if (n == 0) return 0.0;
  if (n == 1) return sorted[0];
  // Rank-mass convention shared with histogram_percentile: the q-th
  // observation sits at rank q*n; interpolate between the two samples
  // bracketing that rank.  Matches a histogram whose bucket bounds are
  // exactly these samples, bit for bit.
  const double rank = q * static_cast<double>(n);
  if (rank <= 1.0) return sorted[0];
  std::size_t i = static_cast<std::size_t>(std::ceil(rank)) - 1;
  i = std::min(i, n - 1);
  const double frac = rank - static_cast<double>(i);
  return sorted[i - 1] + std::clamp(frac, 0.0, 1.0) *
                             (sorted[i] - sorted[i - 1]);
}

double histogram_percentile(const MetricsSnapshot::HistogramData& h,
                            double q) {
  if (h.count == 0) return 0.0;
  // A single observation IS every percentile; `sum` recovers its exact
  // value even when min/max were left at defaults or sentinels by a
  // hand-constructed snapshot.
  if (h.count == 1) return h.sum;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th observation (1-based, midpoint convention keeps
  // p0 = min and p100 = max exact).
  const double rank = q * static_cast<double>(h.count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const std::uint64_t in_bucket = h.buckets[i];
    if (in_bucket == 0) continue;
    const double cum_hi = static_cast<double>(cum + in_bucket);
    if (rank <= cum_hi || i + 1 == h.buckets.size()) {
      // Bucket edges, clamped to the exact observed range so the
      // open-ended first and overflow buckets stay finite.
      double lo = i == 0 ? h.min : h.bounds[i - 1];
      double hi = i < h.bounds.size() ? h.bounds[i] : h.max;
      lo = std::clamp(lo, h.min, h.max);
      hi = std::clamp(hi, h.min, h.max);
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(in_bucket);
      return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
    }
    cum += in_bucket;
  }
  return h.max;
}

HistogramSummary summarize_histogram(
    const MetricsSnapshot::HistogramData& h) {
  HistogramSummary s;
  s.count = h.count;
  // Empty histogram: every field is exactly zero, even when the data
  // still carries the +/-inf accumulation sentinels of a reset
  // Histogram or the defaults of a hand-built snapshot.
  if (h.count == 0) return s;
  if (h.count == 1) {
    // Single observation: it is the min, the max and every percentile.
    s.mean = s.min = s.max = s.p50 = s.p95 = s.p99 = h.sum;
    return s;
  }
  s.mean = h.sum / static_cast<double>(h.count);
  s.min = h.min;
  s.max = h.max;
  s.p50 = histogram_percentile(h, 0.50);
  s.p95 = histogram_percentile(h, 0.95);
  s.p99 = histogram_percentile(h, 0.99);
  return s;
}

MetricRegistry& MetricRegistry::instance() {
  static MetricRegistry registry;
  return registry;
}

Counter& MetricRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricRegistry::histogram(std::string_view name,
                                     std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.bounds = h->bounds();
    data.buckets = h->bucket_counts();
    data.count = h->count();
    data.sum = h->sum();
    data.min = h->min();
    data.max = h->max();
    snap.histograms[name] = std::move(data);
  }
  return snap;
}

void MetricRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace resipe::telemetry
