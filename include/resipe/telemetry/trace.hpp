// Trace recording with Chrome trace-event JSON export.
//
// A TraceSession collects completed spans (from ScopedTimer) and instant
// markers, then serializes them in the Chrome trace-event format so the
// file loads directly in chrome://tracing or https://ui.perfetto.dev.
// The event's `cat` field is the `subsystem` prefix of the span name
// (everything before the first '.').
//
// Beyond the live-instrumentation API (record_complete / instant /
// counter, stamped with the real clock), external exporters can append
// fully-formed events via add_event() — the serving layer uses this to
// replay its *virtual-clock* event journal as request/batch/chip lanes
// with flow arrows ('s'/'t'/'f' phases) linking a request's admission to
// its batch and its chip (serve/trace.hpp).  Tracks get human-readable
// names through set_thread_name(), emitted as Chrome metadata ('M')
// events ahead of the event stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace resipe::telemetry {

/// Writes `s` as a quoted JSON string, escaping '"', '\\' and every
/// control byte below 0x20.  The one escaper behind every exporter.
void json_string(std::ostream& os, std::string_view s);

struct TraceEvent {
  std::string name;
  char phase = 'X';         // 'X' span, 'i' instant, 'C' counter,
                            // 's'/'t'/'f' flow start/step/end
  std::uint64_t ts_ns = 0;  // relative to session start
  std::uint64_t dur_ns = 0;
  std::uint32_t pid = 1;    // lane group (1 = live instrumentation)
  std::uint32_t tid = 0;
  double value = 0.0;       // counter-track sample ('C' events only)
  std::uint64_t flow_id = 0;  // binds 's'/'t'/'f' events into one arrow
  std::string args_json;    // pre-serialized "args" object ("" = none)
};

class TraceSession {
 public:
  static TraceSession& instance();

  /// Clears previous events and begins recording.  Also flips the global
  /// telemetry enable so spans fire without a separate set_enabled call.
  void start();
  void stop();
  bool active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Records a completed span.  `start_abs_ns` is a now_ns() timestamp.
  void record_complete(const char* name, std::uint64_t start_abs_ns,
                       std::uint64_t dur_ns);
  /// Records an instant marker at the current time.
  void instant(const char* name);
  /// Records a counter-track sample at the current time; the viewer
  /// draws one stacked-area track per distinct name.
  void counter(const char* name, double value);

  /// Appends a fully-formed event (external exporters replaying their
  /// own clock; the caller fills ts_ns/pid/tid itself).  Unlike the live
  /// recorders this does not require an active session — an exporter
  /// must never lose events to a stopped flag — but it honors the
  /// capacity cap and drop counter like every other path.
  void add_event(TraceEvent event);

  /// Names a track for the viewer (Chrome `thread_name` metadata,
  /// emitted per distinct (pid, tid) ahead of the event stream).
  /// First writer wins so a thread's original name sticks.
  void set_thread_name(std::uint32_t pid, std::uint32_t tid,
                       const std::string& name);
  /// Names the calling thread's live-instrumentation track.
  void name_current_thread(const std::string& name);
  /// The calling thread's live-instrumentation tid.
  static std::uint32_t current_thread_id();

  /// Caps the in-memory event buffer; further events are counted as
  /// dropped instead of stored.  Default: 1 << 20 events.
  void set_capacity(std::size_t max_events);
  std::size_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  std::vector<TraceEvent> snapshot() const;
  /// Registered (pid, tid) -> name track labels.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string>
  thread_names() const;

  /// Writes `{"traceEvents": [...]}` with metadata first, then events
  /// sorted by timestamp.
  void write_chrome_trace(std::ostream& os) const;
  void write_chrome_trace_file(const std::string& path) const;

 private:
  TraceSession() = default;

  std::atomic<bool> active_{false};
  std::uint64_t t0_ns_ = 0;
  std::atomic<std::size_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> names_;
  std::size_t capacity_ = std::size_t{1} << 20;
};

}  // namespace resipe::telemetry
