#include "resipe/serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>
#include <sstream>

#include "resipe/common/error.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/common/table.hpp"
#include "resipe/serve/trace.hpp"
#include "resipe/telemetry/metrics.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::serve {

namespace {

// Event kinds, in tie-break priority order at equal virtual time:
// completions free chips before anything else wants them, retries
// re-enter the queue before fresh arrivals, and batch timeouts run
// last so a same-instant arrival can still top the batch up.
enum EventKind : int {
  kCompletion = 0,
  kRetry = 1,
  kArrival = 2,
  kBatchTimeout = 3,
};

struct Event {
  double time = 0.0;
  int kind = 0;
  std::uint64_t seq = 0;   // push order; makes the order a total one
  std::size_t index = 0;   // payload index (per kind)

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    if (kind != other.kind) return kind > other.kind;
    return seq > other.seq;
  }
};

/// A request waiting in (or re-entering) the admission queue.
struct Waiting {
  Request req;
  double deadline = 0.0;      // absolute
  double admit_time = 0.0;    // entered the queue (arrival or retry)
  std::size_t attempts = 0;   // inference attempts already consumed
  std::size_t exclude = kNoChip;  // replica that served a faulty attempt
};

/// A dispatched batch in flight on one chip.
struct Batch {
  std::size_t chip = kNoChip;
  double completion = 0.0;
  std::vector<Waiting> items;
};

}  // namespace

const char* to_string(RejectReason r) {
  switch (r) {
    case RejectReason::kQueueFull:
      return "queue_full";
    case RejectReason::kDeadlineExpired:
      return "deadline_expired";
    case RejectReason::kAllChipsQuarantined:
      return "all_chips_quarantined";
    default:
      return "none";
  }
}

const char* to_string(Response::Status s) {
  switch (s) {
    case Response::Status::kOk:
      return "ok";
    case Response::Status::kDegraded:
      return "degraded";
    default:
      return "rejected";
  }
}

double latency_percentile(const std::vector<Response>& responses, double q) {
  std::vector<double> lat;
  lat.reserve(responses.size());
  for (const Response& r : responses) {
    if (r.served()) lat.push_back(r.latency());
  }
  std::sort(lat.begin(), lat.end());
  return telemetry::percentile_sorted(lat, q);
}

ServingStats summarize(const std::vector<Response>& responses) {
  ServingStats s;
  s.submitted = responses.size();
  double first_arrival = 0.0;
  double last_completion = 0.0;
  bool any = false;
  double max_latency = 0.0;
  std::size_t attempts_total = 0;
  for (const Response& r : responses) {
    if (!any || r.arrival < first_arrival) first_arrival = r.arrival;
    if (!any || r.completion > last_completion) {
      last_completion = r.completion;
    }
    any = true;
    attempts_total += r.attempts;
    switch (r.status) {
      case Response::Status::kOk:
        s.served_ok += 1;
        break;
      case Response::Status::kDegraded:
        s.served_degraded += 1;
        break;
      case Response::Status::kRejected:
        if (r.reason == RejectReason::kQueueFull) {
          s.shed_queue_full += 1;
        } else if (r.reason == RejectReason::kAllChipsQuarantined) {
          s.shed_quarantine += 1;
        } else if (r.attempts > 0) {
          s.late_completions += 1;  // served, but past the deadline
        } else {
          s.shed_deadline += 1;
        }
        break;
    }
    if (r.served()) max_latency = std::max(max_latency, r.latency());
  }
  const std::size_t served = s.served_ok + s.served_degraded;
  s.retries = attempts_total >= served + s.late_completions
                  ? attempts_total - served - s.late_completions
                  : 0;
  s.span = any ? last_completion - first_arrival : 0.0;
  s.throughput =
      s.span > 0.0 ? static_cast<double>(served) / s.span : 0.0;
  s.p50 = latency_percentile(responses, 0.50);
  s.p95 = latency_percentile(responses, 0.95);
  s.p99 = latency_percentile(responses, 0.99);
  s.max_latency = max_latency;
  return s;
}

std::string ServingStats::render() const {
  TextTable t({"metric", "value"});
  const auto count = [&t](const char* k, std::size_t v) {
    t.add_row({k, std::to_string(v)});
  };
  count("submitted", submitted);
  count("served ok", served_ok);
  count("served degraded", served_degraded);
  count("shed: queue full", shed_queue_full);
  count("shed: deadline", shed_deadline);
  count("shed: quarantined pool", shed_quarantine);
  count("late completions", late_completions);
  count("retries", retries);
  count("batches", batches);
  t.add_row({"mean batch", format_fixed(mean_batch, 2)});
  t.add_row({"shed rate", format_percent(shed_rate())});
  t.add_row({"throughput", format_si(throughput, "req/s")});
  t.add_row({"latency p50", format_si(p50, "s")});
  t.add_row({"latency p95", format_si(p95, "s")});
  t.add_row({"latency p99", format_si(p99, "s")});
  t.add_row({"latency max", format_si(max_latency, "s")});
  return t.str();
}

Scheduler::Scheduler(ChipPool& pool, const ServeConfig& config)
    : pool_(pool), config_(config) {
  config_.validate();
}

void Scheduler::submit(Request request) {
  RESIPE_REQUIRE(request.input.size() == pool_.input_size(),
                 "request " << request.id << " input size "
                            << request.input.size()
                            << " != pool input size " << pool_.input_size());
  RESIPE_REQUIRE(std::isfinite(request.arrival) && request.arrival >= 0.0,
                 "request " << request.id << " has a bad arrival time "
                            << request.arrival);
  // The engine would serve NaN as a silent input and +Inf as full
  // scale, so a non-finite pixel is refused like a wrong size.
  const auto bad =
      std::find_if_not(request.input.begin(), request.input.end(),
                       [](double v) { return std::isfinite(v); });
  RESIPE_REQUIRE(bad == request.input.end(),
                 "request " << request.id << " input["
                            << bad - request.input.begin()
                            << "] is not finite: " << *bad);
  pending_.push_back(std::move(request));
}

std::vector<Response> Scheduler::run() {
  RESIPE_TELEM_SCOPE("serve.scheduler.run");

  std::vector<Request> trace = std::move(pending_);
  pending_.clear();
  std::sort(trace.begin(), trace.end(),
            [](const Request& a, const Request& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.id < b.id;
            });

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> pq;
  std::uint64_t seq = 0;
  std::vector<Batch> batches;
  std::vector<Waiting> retries;
  std::deque<Waiting> queue;
  std::vector<bool> busy(pool_.size(), false);
  std::vector<Response> responses;
  responses.reserve(trace.size());
  std::size_t dispatched_items = 0;
  double next_probe = config_.health.canary_period;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    pq.push(Event{trace[i].arrival, kArrival, seq++, i});
  }

  // Lifecycle journal hook: one null check per edge when detached, one
  // slot write when attached.  Never steers scheduling.
  const auto journal = [this](const ServeEvent& e) {
    if (journal_ != nullptr) journal_->record(e);
  };
  // Pre-filled request-scoped event; the call site sets the payload and
  // hands it to `journal`.
  const auto request_event = [](ServeEventKind kind, double time,
                                const Waiting& w) {
    ServeEvent e;
    e.time = time;
    e.kind = kind;
    e.request = w.req.id;
    e.tenant = w.req.tenant;
    e.attempt = w.attempts;
    return e;
  };

  const auto reject = [&](Waiting w, RejectReason reason, double now) {
    if (journal_ != nullptr) {
      ServeEvent e = request_event(ServeEventKind::kShed, now, w);
      e.code = static_cast<int>(reason);
      journal(e);
    }
    Response r;
    r.id = w.req.id;
    r.tag = w.req.tag;
    r.tenant = w.req.tenant;
    r.status = Response::Status::kRejected;
    r.reason = reason;
    r.arrival = w.req.arrival;
    r.completion = now;
    r.attempts = w.attempts;
    responses.push_back(std::move(r));
  };

  // Sheds queued requests whose deadline has passed.
  const auto shed_expired = [&](double now) {
    for (auto it = queue.begin(); it != queue.end();) {
      if (it->deadline <= now) {
        RESIPE_TELEM_COUNT("serve.scheduler.shed_deadline", 1);
        reject(std::move(*it), RejectReason::kDeadlineExpired, now);
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
  };

  // Lowest-index free healthy chip, preferring one != exclude.
  const auto free_chip = [&](std::size_t exclude) {
    std::size_t fallback = pool_.size();
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      if (busy[i] ||
          pool_.status(i).state != ChipState::kHealthy) {
        continue;
      }
      if (i == exclude) {
        fallback = i;
        continue;
      }
      return i;
    }
    return fallback;
  };

  // Dispatches as many batches as chips and policy allow at `now`.
  // `work_conserving` relaxes the batch-window wait (a freed chip takes
  // whatever is queued rather than idling).
  const auto try_dispatch = [&](double now, bool work_conserving) {
    shed_expired(now);
    while (!queue.empty()) {
      if (pool_.healthy_count() == 0) {
        // Load-shed instead of deadlocking: with every replica
        // quarantined there is no bounded-latency path to service.
        while (!queue.empty()) {
          RESIPE_TELEM_COUNT("serve.scheduler.shed_quarantine", 1);
          reject(std::move(queue.front()),
                 RejectReason::kAllChipsQuarantined, now);
          queue.pop_front();
        }
        return;
      }
      const bool full = queue.size() >= config_.batch_max;
      const bool window_expired =
          now >= queue.front().admit_time + config_.batch_window;
      const bool ripe = full || work_conserving || window_expired;
      if (!ripe) return;
      const std::size_t chip = free_chip(queue.front().exclude);
      if (chip >= pool_.size()) return;  // all healthy chips busy
      Batch batch;
      batch.chip = chip;
      const std::size_t n =
          std::min<std::size_t>(config_.batch_max, queue.size());
      for (std::size_t i = 0; i < n; ++i) {
        batch.items.push_back(std::move(queue.front()));
        queue.pop_front();
      }
      batch.completion = now + pool_.service_time(chip, n);
      busy[chip] = true;
      dispatched_items += n;
      stats_.batches += 1;
      RESIPE_TELEM_COUNT("serve.scheduler.batches", 1);
      RESIPE_TELEM_OBSERVE("serve.scheduler.batch_size",
                           static_cast<double>(n), 1.0, 2.0, 4.0, 8.0,
                           16.0, 32.0);
      const std::uint64_t batch_id = batches.size();
      if (journal_ != nullptr) {
        ServeEvent form;
        form.time = now;
        form.kind = ServeEventKind::kBatchForm;
        form.batch = batch_id;
        form.chip = chip;
        form.code = static_cast<int>(full ? BatchFillReason::kFull
                                     : window_expired
                                         ? BatchFillReason::kWindowExpired
                                         : BatchFillReason::kWorkConserving);
        form.value = static_cast<double>(n);
        journal(form);
        for (const Waiting& w : batch.items) {
          ServeEvent d = request_event(ServeEventKind::kDispatch, now, w);
          d.batch = batch_id;
          d.chip = chip;
          journal(d);
        }
      }
      batches.push_back(std::move(batch));
      pq.push(Event{batches.back().completion, kCompletion, seq++,
                    batches.size() - 1});
    }
  };

  // Admission control shared by arrivals and retry re-entries.
  const auto admit = [&](Waiting w, double now) {
    if (w.deadline <= now) {
      RESIPE_TELEM_COUNT("serve.scheduler.shed_deadline", 1);
      reject(std::move(w), RejectReason::kDeadlineExpired, now);
      return;
    }
    if (pool_.healthy_count() == 0) {
      RESIPE_TELEM_COUNT("serve.scheduler.shed_quarantine", 1);
      reject(std::move(w), RejectReason::kAllChipsQuarantined, now);
      return;
    }
    if (queue.size() >= config_.queue_capacity) {
      RESIPE_TELEM_COUNT("serve.scheduler.shed_queue_full", 1);
      reject(std::move(w), RejectReason::kQueueFull, now);
      return;
    }
    w.admit_time = now;
    if (journal_ != nullptr) {
      ServeEvent e = request_event(ServeEventKind::kAdmit, now, w);
      e.value = static_cast<double>(queue.size() + 1);  // depth after
      journal(e);
    }
    queue.push_back(std::move(w));
    RESIPE_TELEM_COUNT("serve.scheduler.admitted", 1);
    RESIPE_TELEM_OBSERVE("serve.scheduler.queue_depth",
                         static_cast<double>(queue.size()), 1.0, 4.0,
                         16.0, 64.0, 256.0);
    if (config_.batch_window > 0.0) {
      pq.push(Event{now + config_.batch_window, kBatchTimeout, seq++, 0});
    }
    try_dispatch(now, /*work_conserving=*/config_.batch_window == 0.0);
  };

  stats_ = ServingStats{};

  while (!pq.empty()) {
    const Event ev = pq.top();
    // Health probes interleave at their virtual period, running before
    // any same-instant event; probing stops once the trace drains.
    while (next_probe <= ev.time) {
      const double t = next_probe;
      next_probe += config_.health.canary_period;
      // Snapshot per-chip health so the probe verdicts and state
      // transitions can be journaled by diffing (pool internals stay
      // untouched; skipped entirely when no journal is attached).
      std::vector<std::pair<ChipState, std::size_t>> before;
      if (journal_ != nullptr) {
        before.reserve(pool_.size());
        for (std::size_t c = 0; c < pool_.size(); ++c) {
          const ChipStatus& s = pool_.status(c);
          before.emplace_back(s.state, s.consecutive_failed);
        }
      }
      const std::size_t transitions = pool_.run_probe_round();
      if (journal_ != nullptr) {
        for (std::size_t c = 0; c < pool_.size(); ++c) {
          const ChipStatus& s = pool_.status(c);
          ServeEvent probe;
          probe.time = t;
          probe.kind = ServeEventKind::kProbe;
          probe.chip = c;
          // A probe failed iff its consecutive-failure streak grew.
          probe.code = s.consecutive_failed > before[c].second ? 1 : 0;
          probe.value = s.last_canary_mismatch;
          probe.aux = s.last_canary_rmse;
          journal(probe);
          if (s.state != before[c].first) {
            ServeEvent tr;
            tr.time = t;
            tr.kind = s.state == ChipState::kQuarantined
                          ? ServeEventKind::kQuarantine
                          : ServeEventKind::kReadmit;
            tr.chip = c;
            journal(tr);
          }
        }
      }
      if (transitions > 0) {
        // Readmitted chips pick up queued work; an all-quarantined
        // pool sheds the queue instead of deadlocking.
        try_dispatch(t, false);
      }
    }
    pq.pop();

    switch (ev.kind) {
      case kArrival: {
        Waiting w;
        w.req = std::move(trace[ev.index]);
        w.deadline = w.req.deadline > 0.0
                         ? w.req.deadline
                         : w.req.arrival + config_.default_deadline;
        admit(std::move(w), ev.time);
        break;
      }
      case kBatchTimeout: {
        try_dispatch(ev.time, false);
        break;
      }
      case kRetry: {
        Waiting w = std::move(retries[ev.index]);
        admit(std::move(w), ev.time);
        break;
      }
      case kCompletion: {
        Batch& batch = batches[ev.index];
        busy[batch.chip] = false;
        const std::size_t n = batch.items.size();
        std::vector<std::size_t> shape = {n};
        const auto& in_shape = pool_.input_shape();
        shape.insert(shape.end(), in_shape.begin(), in_shape.end());
        nn::Tensor inputs(shape);
        for (std::size_t i = 0; i < n; ++i) {
          const auto& x = batch.items[i].req.input;
          std::copy(x.begin(), x.end(),
                    inputs.data().begin() +
                        static_cast<std::ptrdiff_t>(i * x.size()));
        }
        const nn::Tensor logits = pool_.infer(batch.chip, inputs);
        const std::size_t degraded = pool_.degraded_outputs(batch.chip);
        const std::size_t out = logits.size() / n;
        for (std::size_t i = 0; i < n; ++i) {
          Waiting& w = batch.items[i];
          w.attempts += 1;
          if (journal_ != nullptr) {
            ServeEvent a =
                request_event(ServeEventKind::kAttemptDone, ev.time, w);
            a.batch = ev.index;
            a.chip = batch.chip;
            a.value = static_cast<double>(degraded);
            journal(a);
          }
          if (ev.time > w.deadline) {
            // Served, but too late to be useful: drop the logits and
            // report the miss explicitly.
            RESIPE_TELEM_COUNT("serve.scheduler.late_completions", 1);
            reject(std::move(w), RejectReason::kDeadlineExpired, ev.time);
            continue;
          }
          if (degraded > 0 &&
              w.attempts <= static_cast<std::size_t>(config_.retry_max)) {
            // Fault-flagged outputs: back off and fail over.
            const std::size_t attempt = w.attempts;
            double delay = config_.backoff_base;
            for (std::size_t k = 1; k < attempt; ++k) {
              delay = std::min(delay * config_.backoff_multiplier,
                               config_.backoff_max);
            }
            delay = std::min(delay, config_.backoff_max);
            Rng jitter_rng(
                hash_seed(config_.seed, w.req.id, attempt));
            const double jitter = jitter_rng.uniform();
            delay *= 1.0 + config_.backoff_jitter * jitter;
            w.exclude = batch.chip;
            RESIPE_TELEM_COUNT("serve.scheduler.retries", 1);
            if (journal_ != nullptr) {
              ServeEvent rs =
                  request_event(ServeEventKind::kRetrySchedule, ev.time, w);
              rs.chip = batch.chip;  // replica being excluded
              rs.value = delay;
              rs.aux = jitter;
              journal(rs);
            }
            retries.push_back(std::move(w));
            pq.push(Event{ev.time + delay, kRetry, seq++,
                          retries.size() - 1});
            continue;
          }
          if (journal_ != nullptr) {
            ServeEvent done =
                request_event(ServeEventKind::kComplete, ev.time, w);
            done.chip = batch.chip;
            done.code = degraded > 0 ? 1 : 0;
            done.value = static_cast<double>(degraded);
            journal(done);
          }
          Response r;
          r.id = w.req.id;
          r.tag = w.req.tag;
          r.tenant = w.req.tenant;
          r.status = degraded > 0 ? Response::Status::kDegraded
                                  : Response::Status::kOk;
          r.reason = RejectReason::kNone;
          r.logits.assign(logits.data().begin() +
                              static_cast<std::ptrdiff_t>(i * out),
                          logits.data().begin() +
                              static_cast<std::ptrdiff_t>((i + 1) * out));
          r.arrival = w.req.arrival;
          r.completion = ev.time;
          r.attempts = w.attempts;
          r.chip = batch.chip;
          r.degraded_outputs = degraded;
          RESIPE_TELEM_OBSERVE("serve.scheduler.latency_s", r.latency(),
                               1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0);
          responses.push_back(std::move(r));
        }
        batch.items.clear();
        try_dispatch(ev.time, /*work_conserving=*/true);
        break;
      }
      default:
        RESIPE_ASSERT(false, "unknown serve event kind " << ev.kind);
    }
  }

  RESIPE_ASSERT(queue.empty(),
                "scheduler drained with " << queue.size()
                    << " requests still queued");
  RESIPE_ASSERT(responses.size() == trace.size(),
                "response count " << responses.size()
                    << " != submitted count " << trace.size()
                    << " — a request was silently dropped");

  std::sort(responses.begin(), responses.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });
  const std::size_t batches_run = stats_.batches;
  stats_ = summarize(responses);
  stats_.batches = batches_run;
  if (batches_run > 0) {
    stats_.mean_batch = static_cast<double>(dispatched_items) /
                        static_cast<double>(batches_run);
  }
  return responses;
}

}  // namespace resipe::serve
