#include "resipe/serve/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "resipe/common/error.hpp"
#include "resipe/common/file.hpp"
#include "resipe/telemetry/trace.hpp"

namespace resipe::serve {

namespace {

/// Virtual seconds -> trace nanoseconds (the Chrome export's clock).
std::uint64_t virtual_ns(double t_s) {
  return t_s <= 0.0 ? 0 : static_cast<std::uint64_t>(t_s * 1e9);
}

/// Is this event a request's terminal outcome?
bool terminal(ServeEventKind k) {
  return k == ServeEventKind::kComplete || k == ServeEventKind::kShed;
}

}  // namespace

const char* to_string(ServeEventKind k) {
  switch (k) {
    case ServeEventKind::kAdmit: return "admit";
    case ServeEventKind::kShed: return "shed";
    case ServeEventKind::kBatchForm: return "batch_form";
    case ServeEventKind::kDispatch: return "dispatch";
    case ServeEventKind::kAttemptDone: return "attempt_done";
    case ServeEventKind::kRetrySchedule: return "retry_schedule";
    case ServeEventKind::kComplete: return "complete";
    case ServeEventKind::kProbe: return "probe";
    case ServeEventKind::kQuarantine: return "quarantine";
    case ServeEventKind::kReadmit: return "readmit";
  }
  return "unknown";
}

const char* to_string(BatchFillReason r) {
  switch (r) {
    case BatchFillReason::kFull: return "full";
    case BatchFillReason::kWindowExpired: return "window_expired";
    case BatchFillReason::kWorkConserving: return "work_conserving";
  }
  return "unknown";
}

EventJournal::EventJournal(std::size_t capacity) {
  RESIPE_REQUIRE(capacity > 0, "event journal capacity must be positive");
  slots_.resize(capacity);
}

void EventJournal::record(ServeEvent event) noexcept {
  const std::uint64_t slot =
      next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  event.seq = slot;
  slots_[slot] = event;
#if defined(__GNUC__) || defined(__clang__)
  // The buffer is written once, front to back, and each slot lands on a
  // cold cache line — the write stall, not the bookkeeping, dominates
  // the per-event cost.  Prefetch a few slots ahead (for write) so the
  // line is in flight before the scheduler gets back here.
  if (slot + 8 < slots_.size()) {
    __builtin_prefetch(&slots_[slot + 8], 1, 0);
  }
#endif
}

std::size_t EventJournal::size() const noexcept {
  const std::uint64_t n = next_.load(std::memory_order_relaxed);
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(n, slots_.size()));
}

std::size_t EventJournal::dropped() const noexcept {
  return static_cast<std::size_t>(
      dropped_.load(std::memory_order_relaxed));
}

std::vector<ServeEvent> EventJournal::events() const {
  return {slots_.begin(),
          slots_.begin() + static_cast<std::ptrdiff_t>(size())};
}

void EventJournal::clear() noexcept {
  next_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

std::map<std::uint64_t, RequestTrace> assemble_traces(
    const std::vector<ServeEvent>& events) {
  std::map<std::uint64_t, RequestTrace> traces;
  for (const ServeEvent& e : events) {
    if (e.request == kNoId) continue;  // chip-level health events
    RequestTrace& t = traces[e.request];
    if (t.events.empty()) {
      t.id = e.request;
      t.tenant = e.tenant;
      t.first_time = e.time;
    }
    switch (e.kind) {
      case ServeEventKind::kAdmit:
        t.admits += 1;
        break;
      case ServeEventKind::kAttemptDone:
        t.attempts += 1;
        break;
      case ServeEventKind::kRetrySchedule:
        t.retries_scheduled += 1;
        break;
      case ServeEventKind::kComplete:
        t.terminal_seen = true;
        t.served = true;
        t.degraded = e.code != 0;
        t.terminal_time = e.time;
        break;
      case ServeEventKind::kShed:
        t.terminal_seen = true;
        t.served = false;
        t.reason = static_cast<RejectReason>(e.code);
        t.terminal_time = e.time;
        break;
      default:
        break;
    }
    t.events.push_back(e);
  }
  return traces;
}

std::string TraceAudit::render() const {
  std::ostringstream os;
  os << "trace audit: " << requests << " request(s), " << events
     << " event(s), " << terminals << " terminal(s), " << dropped
     << " dropped — " << (ok() ? "OK" : "VIOLATIONS") << "\n";
  for (const std::string& issue : issues) os << "  ! " << issue << "\n";
  return os.str();
}

TraceAudit audit_trace(const EventJournal& journal,
                       const ServingStats& stats) {
  TraceAudit audit;
  const std::vector<ServeEvent> events = journal.events();
  audit.events = events.size();
  audit.dropped = journal.dropped();

  const auto complain = [&audit](const std::string& what) {
    audit.issues.push_back(what);
  };

  if (audit.dropped > 0) {
    std::ostringstream os;
    os << "journal dropped " << audit.dropped
       << " event(s): conservation cannot be proven on a lossy journal "
          "(raise the capacity)";
    complain(os.str());
    return audit;  // every count below would be noise
  }

  // --- per-request causal chain + exactly-one-terminal.
  const auto traces = assemble_traces(events);
  audit.requests = traces.size();
  std::size_t complete_ok = 0, complete_degraded = 0;
  std::size_t shed_queue_full = 0, shed_quarantine = 0;
  std::size_t shed_deadline_fresh = 0, shed_deadline_late = 0;
  std::size_t attempts_total = 0;
  for (const auto& [id, t] : traces) {
    std::size_t terminals_here = 0;
    std::size_t attempts_seen = 0;
    bool admitted = false;
    for (const ServeEvent& e : t.events) {
      if (terminal(e.kind)) ++terminals_here;
      switch (e.kind) {
        case ServeEventKind::kAdmit:
          admitted = true;
          break;
        case ServeEventKind::kDispatch:
          if (!admitted) {
            std::ostringstream os;
            os << "request " << id << ": dispatched without admission";
            complain(os.str());
          }
          if (e.attempt != attempts_seen) {
            std::ostringstream os;
            os << "request " << id << ": dispatch attempt " << e.attempt
               << " but " << attempts_seen << " attempt(s) completed";
            complain(os.str());
          }
          break;
        case ServeEventKind::kAttemptDone:
          ++attempts_seen;
          if (e.attempt != attempts_seen) {
            std::ostringstream os;
            os << "request " << id << ": attempt_done numbered "
               << e.attempt << ", expected " << attempts_seen;
            complain(os.str());
          }
          break;
        default:
          break;
      }
      if (terminals_here > 0 && !terminal(e.kind)) {
        std::ostringstream os;
        os << "request " << id << ": event " << to_string(e.kind)
           << " after its terminal";
        complain(os.str());
      }
    }
    audit.terminals += terminals_here;
    attempts_total += attempts_seen;
    if (terminals_here != 1) {
      std::ostringstream os;
      os << "request " << id << ": " << terminals_here
         << " terminal event(s), want exactly 1";
      complain(os.str());
      continue;
    }
    const ServeEvent& last = t.events.back();
    if (last.kind == ServeEventKind::kComplete) {
      (last.code == 0 ? complete_ok : complete_degraded) += 1;
    } else {
      // Mirror summarize()'s bucketing exactly: a deadline shed with
      // attempts consumed is a late completion.
      const auto reason = static_cast<RejectReason>(last.code);
      if (reason == RejectReason::kQueueFull) {
        shed_queue_full += 1;
      } else if (reason == RejectReason::kAllChipsQuarantined) {
        shed_quarantine += 1;
      } else if (last.attempt > 0) {
        shed_deadline_late += 1;
      } else {
        shed_deadline_fresh += 1;
      }
    }
  }

  // --- exact reconciliation with the ServingStats buckets.
  const auto reconcile = [&complain](const char* what, std::size_t journal_n,
                                     std::size_t stats_n) {
    if (journal_n == stats_n) return;
    std::ostringstream os;
    os << what << ": journal says " << journal_n << ", stats say "
       << stats_n;
    complain(os.str());
  };
  reconcile("submitted", audit.requests, stats.submitted);
  reconcile("served_ok", complete_ok, stats.served_ok);
  reconcile("served_degraded", complete_degraded, stats.served_degraded);
  reconcile("shed_queue_full", shed_queue_full, stats.shed_queue_full);
  reconcile("shed_deadline", shed_deadline_fresh, stats.shed_deadline);
  reconcile("shed_quarantine", shed_quarantine, stats.shed_quarantine);
  reconcile("late_completions", shed_deadline_late, stats.late_completions);

  std::size_t batch_forms = 0;
  for (const ServeEvent& e : events) {
    if (e.kind == ServeEventKind::kBatchForm) ++batch_forms;
  }
  reconcile("batches", batch_forms, stats.batches);

  // Attempts identity: total attempts minus one service per request
  // that produced a (possibly late) answer equals the retry count the
  // stats derive from the responses.
  const std::size_t servings =
      complete_ok + complete_degraded + shed_deadline_late;
  if (attempts_total < servings) {
    complain("fewer attempts than served requests — impossible chain");
  } else {
    reconcile("retries (attempts identity)", attempts_total - servings,
              stats.retries);
  }
  return audit;
}

namespace {

/// Minimal JSON writer for one event line.  Fields that do not apply
/// (kNoId request/batch, kNoChip) are omitted, so every present key is
/// meaningful.
void write_event_json(std::ostream& os, const ServeEvent& e) {
  char buf[64];
  os << "{\"seq\":" << e.seq;
  std::snprintf(buf, sizeof buf, "%.9f", e.time);
  os << ",\"t\":" << buf;
  os << ",\"kind\":\"" << to_string(e.kind) << '"';
  if (e.request != kNoId) {
    os << ",\"request\":" << e.request << ",\"tenant\":" << e.tenant;
  }
  if (e.batch != kNoId) os << ",\"batch\":" << e.batch;
  if (e.chip != kNoChip) os << ",\"chip\":" << e.chip;
  os << ",\"attempt\":" << e.attempt;
  switch (e.kind) {
    case ServeEventKind::kShed:
      os << ",\"reason\":\""
         << to_string(static_cast<RejectReason>(e.code)) << '"';
      break;
    case ServeEventKind::kBatchForm:
      os << ",\"fill\":\""
         << to_string(static_cast<BatchFillReason>(e.code))
         << "\",\"size\":" << static_cast<std::size_t>(e.value);
      break;
    case ServeEventKind::kComplete:
      os << ",\"status\":\"" << (e.code == 0 ? "ok" : "degraded")
         << "\",\"degraded_outputs\":" << static_cast<std::size_t>(e.value);
      break;
    case ServeEventKind::kProbe:
      os << ",\"verdict\":\"" << (e.code == 0 ? "clean" : "fail") << '"';
      std::snprintf(buf, sizeof buf, "%.6f", e.value);
      os << ",\"mismatch\":" << buf;
      std::snprintf(buf, sizeof buf, "%.9g", e.aux);
      os << ",\"rmse\":" << buf;
      break;
    case ServeEventKind::kRetrySchedule:
      std::snprintf(buf, sizeof buf, "%.9g", e.value);
      os << ",\"backoff_s\":" << buf;
      std::snprintf(buf, sizeof buf, "%.9g", e.aux);
      os << ",\"jitter\":" << buf;
      break;
    case ServeEventKind::kAdmit:
      os << ",\"queue_depth\":" << static_cast<std::size_t>(e.value);
      break;
    case ServeEventKind::kAttemptDone:
      os << ",\"degraded_outputs\":" << static_cast<std::size_t>(e.value);
      break;
    default:
      break;
  }
  os << "}\n";
}

}  // namespace

void write_events_ndjson(const EventJournal& journal,
                         const ServingStats& stats, std::ostream& os) {
  const std::vector<ServeEvent> events = journal.events();
  os << "{\"schema\":\"resipe.serve.trace/1\",\"events\":" << events.size()
     << ",\"dropped\":" << journal.dropped() << "}\n";
  for (const ServeEvent& e : events) write_event_json(os, e);
  os << "{\"summary\":{\"submitted\":" << stats.submitted
     << ",\"served_ok\":" << stats.served_ok
     << ",\"served_degraded\":" << stats.served_degraded
     << ",\"shed_queue_full\":" << stats.shed_queue_full
     << ",\"shed_deadline\":" << stats.shed_deadline
     << ",\"shed_quarantine\":" << stats.shed_quarantine
     << ",\"late_completions\":" << stats.late_completions
     << ",\"retries\":" << stats.retries
     << ",\"batches\":" << stats.batches
     << ",\"dropped\":" << journal.dropped() << "}}\n";
}

void write_events_ndjson_file(const EventJournal& journal,
                              const ServingStats& stats,
                              const std::string& path) {
  write_file(path, [&](std::ostream& os) {
    write_events_ndjson(journal, stats, os);
  });
}

void export_chrome_trace(const EventJournal& journal,
                         telemetry::TraceSession& session) {
  using telemetry::TraceEvent;
  const std::vector<ServeEvent> events = journal.events();

  // --- lane labels.  Chips present in the journal get their own lane.
  session.set_thread_name(kServePid, kSchedulerLane, "serve: scheduler queue");
  session.set_thread_name(kServePid, kHealthLane, "serve: health probes");
  for (const ServeEvent& e : events) {
    if (e.chip != kNoChip) {
      session.set_thread_name(
          kServePid,
          kChipLaneBase + static_cast<std::uint32_t>(e.chip),
          "serve: chip " + std::to_string(e.chip));
    }
  }

  const auto lane_for_chip = [](std::size_t chip) {
    return kChipLaneBase + static_cast<std::uint32_t>(chip);
  };
  const auto emit = [&session](TraceEvent e) {
    e.pid = kServePid;
    session.add_event(std::move(e));
  };
  const auto instant = [&emit](const std::string& name, double t,
                               std::uint32_t tid, std::string args) {
    TraceEvent e;
    e.name = name;
    e.phase = 'i';
    e.ts_ns = virtual_ns(t);
    e.tid = tid;
    e.args_json = std::move(args);
    emit(std::move(e));
  };
  const auto flow = [&emit](char phase, std::uint64_t id, double t,
                            std::uint32_t tid) {
    TraceEvent e;
    e.name = "serve.request";
    e.phase = phase;
    e.flow_id = id;
    e.ts_ns = virtual_ns(t);
    e.tid = tid;
    emit(std::move(e));
  };

  // --- batch service spans on chip lanes: kBatchForm opens the span,
  // the batch's first kAttemptDone (same batch id) closes it.
  std::map<std::uint64_t, const ServeEvent*> batch_open;
  std::map<std::uint64_t, double> batch_close;
  for (const ServeEvent& e : events) {
    if (e.kind == ServeEventKind::kBatchForm) {
      batch_open[e.batch] = &e;
    } else if (e.kind == ServeEventKind::kAttemptDone &&
               e.batch != kNoId) {
      batch_close.emplace(e.batch, e.time);  // first completion wins
    }
  }
  for (const auto& [batch_id, open] : batch_open) {
    const auto closed = batch_close.find(batch_id);
    if (closed == batch_close.end()) continue;
    TraceEvent span;
    span.name = "serve.batch";
    span.phase = 'X';
    span.ts_ns = virtual_ns(open->time);
    span.dur_ns = virtual_ns(closed->second) - span.ts_ns;
    span.tid = lane_for_chip(open->chip);
    std::ostringstream args;
    args << "{\"batch\":" << batch_id << ",\"size\":"
         << static_cast<std::size_t>(open->value) << ",\"fill\":\""
         << to_string(static_cast<BatchFillReason>(open->code)) << "\"}";
    span.args_json = args.str();
    emit(std::move(span));
  }

  // --- per-request queue-wait spans + flow arrows, scheduler-lane
  // instants for sheds, health-lane events for probes/transitions.
  const auto traces = assemble_traces(events);
  for (const auto& [id, t] : traces) {
    double admit_time = -1.0;
    bool flow_started = false;
    for (const ServeEvent& e : t.events) {
      switch (e.kind) {
        case ServeEventKind::kAdmit:
          admit_time = e.time;
          if (!flow_started) {
            flow_started = true;
            flow('s', id, e.time, kSchedulerLane);
          }
          break;
        case ServeEventKind::kDispatch: {
          if (admit_time >= 0.0) {
            TraceEvent wait;
            wait.name = "serve.queue_wait";
            wait.phase = 'X';
            wait.ts_ns = virtual_ns(admit_time);
            wait.dur_ns = virtual_ns(e.time) - wait.ts_ns;
            wait.tid = kSchedulerLane;
            std::ostringstream args;
            args << "{\"request\":" << id << ",\"attempt\":" << e.attempt
                 << "}";
            wait.args_json = args.str();
            emit(std::move(wait));
            admit_time = -1.0;
          }
          if (flow_started && e.chip != kNoChip) {
            flow('t', id, e.time, lane_for_chip(e.chip));
          }
          break;
        }
        case ServeEventKind::kComplete:
          if (flow_started) {
            flow('f', id, e.time,
                 e.chip != kNoChip ? lane_for_chip(e.chip)
                                   : kSchedulerLane);
          }
          break;
        case ServeEventKind::kShed: {
          std::ostringstream args;
          args << "{\"request\":" << id << ",\"reason\":\""
               << to_string(static_cast<RejectReason>(e.code)) << "\"}";
          instant("serve.shed", e.time, kSchedulerLane, args.str());
          if (flow_started) flow('f', id, e.time, kSchedulerLane);
          break;
        }
        case ServeEventKind::kRetrySchedule: {
          std::ostringstream args;
          args << "{\"request\":" << id << ",\"backoff_s\":" << e.value
               << "}";
          instant("serve.retry", e.time, kSchedulerLane, args.str());
          break;
        }
        default:
          break;
      }
    }
  }

  double queue_depth_last = -1.0;
  for (const ServeEvent& e : events) {
    switch (e.kind) {
      case ServeEventKind::kAdmit:
        if (e.value != queue_depth_last) {
          queue_depth_last = e.value;
          TraceEvent c;
          c.name = "serve.queue_depth";
          c.phase = 'C';
          c.ts_ns = virtual_ns(e.time);
          c.tid = kSchedulerLane;
          c.value = e.value;
          emit(std::move(c));
        }
        break;
      case ServeEventKind::kProbe:
        if (e.code != 0) {
          std::ostringstream args;
          args << "{\"chip\":" << e.chip << ",\"mismatch\":" << e.value
               << ",\"rmse\":" << e.aux << "}";
          instant("serve.probe_fail", e.time, kHealthLane, args.str());
        }
        break;
      case ServeEventKind::kQuarantine: {
        std::ostringstream args;
        args << "{\"chip\":" << e.chip << "}";
        instant("serve.quarantine", e.time, kHealthLane, args.str());
        break;
      }
      case ServeEventKind::kReadmit: {
        std::ostringstream args;
        args << "{\"chip\":" << e.chip << "}";
        instant("serve.readmit", e.time, kHealthLane, args.str());
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace resipe::serve
