// Deadline-aware batching scheduler with admission control and bounded
// retry — the request path in front of a ChipPool.
//
// The scheduler is a discrete-event simulation on a virtual clock:
// callers submit requests stamped with virtual arrival times (e.g. from
// traffic.hpp's Poisson generator), run() replays the whole trace —
// admission, batching, dispatch, health probes, retries — in
// deterministic event order, and every submitted request produces
// exactly one Response: completed, degraded, or explicitly
// Rejected{reason}.  Nothing is ever silently dropped.
//
// Policies (see docs/serving.md for the operator view):
//  * Admission: a bounded FIFO queue (queue_capacity); arrivals beyond
//    capacity, past their deadline, or facing an all-quarantined pool
//    are shed immediately with the precise reason.
//  * Batching: requests accumulate until batch_max or until the oldest
//    waiter has aged batch_window, then dispatch as one batch onto the
//    lowest-index free healthy chip (the engine's batched MVM path).
//    A freed chip immediately picks up waiting work.
//  * Deadlines: checked at admission, at dispatch (expired waiters are
//    shed), and at completion (late results are dropped and reported
//    as deadline rejections — a late answer is a wrong answer).
//  * Retry: a response carrying fault-flagged outputs (output_ok from
//    the PR 2 reliability layer) is retried up to retry_max times with
//    exponential backoff + deterministic jitter, preferring a different
//    replica; exhaustion surfaces the last attempt's fault flags as a
//    kDegraded response.
//
// Determinism: event order is a pure function of the submitted traffic
// (ties broken by a fixed event-kind priority, then submission order),
// jitter comes from hash_seed(config.seed, request id, attempt), and
// the heavy lifting — the actual inference — is the engine's
// thread-count-invariant batched forward.  A trace therefore replays
// bit-identically at 1, 2 or N worker threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "resipe/serve/config.hpp"
#include "resipe/serve/pool.hpp"

namespace resipe::serve {

/// Sentinel chip index ("no chip").
inline constexpr std::size_t kNoChip =
    std::numeric_limits<std::size_t>::max();

/// One inference request.
struct Request {
  std::uint64_t id = 0;       ///< unique; responses are sorted by it
  std::uint64_t tag = 0;      ///< caller cookie (e.g. dataset row, label)
  std::uint64_t tenant = 0;   ///< billing/SLO bucket; echoed on the
                              ///< response and every trace event
  double arrival = 0.0;       ///< virtual arrival time (s)
  /// Absolute virtual deadline; 0 = arrival + config.default_deadline.
  double deadline = 0.0;
  std::vector<double> input;  ///< one sample, flattened (pool input_size)
};

/// Why a request was shed.
enum class RejectReason {
  kNone = 0,
  kQueueFull,            ///< admission queue at capacity
  kDeadlineExpired,      ///< deadline passed (at admission, in queue,
                         ///< or served too late)
  kAllChipsQuarantined,  ///< no healthy replica to serve it
};

const char* to_string(RejectReason r);

/// One result per submitted request.
struct Response {
  enum class Status {
    kOk,        ///< served, all outputs trusted
    kDegraded,  ///< served, but fault-flagged outputs survived retries
    kRejected,  ///< shed; `reason` says why, logits are empty
  };

  std::uint64_t id = 0;
  std::uint64_t tag = 0;
  std::uint64_t tenant = 0;      ///< copied from the request
  Status status = Status::kRejected;
  RejectReason reason = RejectReason::kNone;
  std::vector<double> logits;    ///< empty when rejected
  double arrival = 0.0;
  double completion = 0.0;       ///< service or shed time (virtual s)
  std::size_t attempts = 0;      ///< inference attempts consumed
  std::size_t chip = kNoChip;    ///< replica of the final attempt
  std::size_t degraded_outputs = 0;  ///< fault flags of the final attempt

  double latency() const { return completion - arrival; }
  bool served() const { return status != Status::kRejected; }
};

const char* to_string(Response::Status s);

/// Aggregate scheduler outcome (exact, computed from the responses —
/// available whether or not telemetry is enabled).
struct ServingStats {
  std::size_t submitted = 0;
  std::size_t served_ok = 0;
  std::size_t served_degraded = 0;
  std::size_t shed_queue_full = 0;
  std::size_t shed_deadline = 0;       ///< at admission or in queue
  std::size_t shed_quarantine = 0;
  std::size_t late_completions = 0;    ///< served past deadline -> shed
  std::size_t retries = 0;             ///< retry attempts dispatched
  std::size_t batches = 0;
  double mean_batch = 0.0;
  double span = 0.0;                   ///< last completion - first arrival
  double throughput = 0.0;             ///< served / span
  double p50 = 0.0, p95 = 0.0, p99 = 0.0, max_latency = 0.0;  ///< served

  std::size_t shed() const {
    return shed_queue_full + shed_deadline + shed_quarantine +
           late_completions;
  }
  double shed_rate() const {
    return submitted == 0
               ? 0.0
               : static_cast<double>(shed()) / static_cast<double>(submitted);
  }

  std::string render() const;
};

/// Exact percentile over served-response latencies (q in [0, 1]).
/// Routes through telemetry::percentile_sorted — the repo-wide
/// rank-mass linear-interpolation convention — so ServingStats, the
/// SLO dashboard and the metrics registry agree on every quantile.
double latency_percentile(const std::vector<Response>& responses, double q);

/// Computes the roll-up from a response stream.
ServingStats summarize(const std::vector<Response>& responses);

class EventJournal;  // serve/trace.hpp

/// The scheduler.  Bind it to a pool, submit a trace, run it.
class Scheduler {
 public:
  Scheduler(ChipPool& pool, const ServeConfig& config);

  /// Buffers one request (any order; run() sorts by arrival).  Input
  /// length must match the pool and every input value be finite; ids
  /// must be unique.  Throws resipe::Error naming the request id.
  void submit(Request request);

  /// Attaches a lifecycle-event journal (serve/trace.hpp); every
  /// admission, shed, batch formation, dispatch, attempt, retry,
  /// completion and health transition of subsequent run() calls is
  /// recorded.  Pass nullptr to detach.  The journal observes but
  /// never steers: responses are bit-identical with or without one
  /// (fuzzer contract `serving_trace_identity`).  Caller keeps
  /// ownership and must outlive run().
  void attach_journal(EventJournal* journal) { journal_ = journal; }

  /// Replays every submitted request through the serving path and
  /// returns one Response per request, sorted by id.  Submissions are
  /// consumed; the pool's health state persists across runs.
  std::vector<Response> run();

  /// Stats of the last run().
  const ServingStats& stats() const { return stats_; }

 private:
  ChipPool& pool_;
  ServeConfig config_;
  std::vector<Request> pending_;
  ServingStats stats_;
  EventJournal* journal_ = nullptr;
};

}  // namespace resipe::serve
