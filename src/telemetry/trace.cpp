#include "resipe/telemetry/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "resipe/common/file.hpp"
#include "resipe/telemetry/metrics.hpp"
#include "resipe/telemetry/timer.hpp"

namespace resipe::telemetry {

namespace {

std::uint32_t this_thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

void json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

TraceSession& TraceSession::instance() {
  static TraceSession session;
  return session;
}

void TraceSession::start() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  // Track names survive session restarts on purpose: pool workers label
  // themselves once per process, not once per session.
  dropped_.store(0, std::memory_order_relaxed);
  t0_ns_ = now_ns();
  active_.store(true, std::memory_order_relaxed);
  set_enabled(true);
  names_[{1, this_thread_id()}] = "main";
}

void TraceSession::stop() { active_.store(false, std::memory_order_relaxed); }

void TraceSession::record_complete(const char* name,
                                   std::uint64_t start_abs_ns,
                                   std::uint64_t dur_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_.load(std::memory_order_relaxed)) return;
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  e.name = name;
  e.phase = 'X';
  e.ts_ns = start_abs_ns >= t0_ns_ ? start_abs_ns - t0_ns_ : 0;
  e.dur_ns = dur_ns;
  e.tid = this_thread_id();
  events_.push_back(std::move(e));
}

void TraceSession::instant(const char* name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_.load(std::memory_order_relaxed)) return;
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  e.name = name;
  e.phase = 'i';
  e.ts_ns = now_ns() - t0_ns_;
  e.tid = this_thread_id();
  events_.push_back(std::move(e));
}

void TraceSession::counter(const char* name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_.load(std::memory_order_relaxed)) return;
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  e.name = name;
  e.phase = 'C';
  e.ts_ns = now_ns() - t0_ns_;
  e.tid = this_thread_id();
  e.value = value;
  events_.push_back(std::move(e));
}

void TraceSession::add_event(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(event));
}

void TraceSession::set_thread_name(std::uint32_t pid, std::uint32_t tid,
                                   const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  names_.emplace(std::make_pair(pid, tid), name);  // first writer wins
}

void TraceSession::name_current_thread(const std::string& name) {
  set_thread_name(1, this_thread_id(), name);
}

std::uint32_t TraceSession::current_thread_id() { return this_thread_id(); }

void TraceSession::set_capacity(std::size_t max_events) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = max_events;
}

std::vector<TraceEvent> TraceSession::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::map<std::pair<std::uint32_t, std::uint32_t>, std::string>
TraceSession::thread_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_;
}

void TraceSession::write_chrome_trace(std::ostream& os) const {
  std::vector<TraceEvent> events = snapshot();
  const auto names = thread_names();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  os << "{\"traceEvents\":[";
  bool first = true;
  // Metadata first: one thread_name record per registered track so the
  // viewer labels lanes before any event references them.
  for (const auto& [key, label] : names) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << key.first
       << ",\"tid\":" << key.second << ",\"args\":{\"name\":";
    json_string(os, label);
    os << "}}";
  }
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    const auto dot = e.name.find('.');
    const std::string cat =
        dot == std::string::npos ? e.name : e.name.substr(0, dot);
    os << "{\"name\":";
    json_string(os, e.name);
    os << ",\"cat\":";
    json_string(os, cat);
    os << ",\"ph\":\"" << e.phase << "\"";
    // Chrome expects microseconds; emit fractional us to keep ns detail.
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(e.ts_ns) * 1e-3);
    os << ",\"ts\":" << buf;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof buf, "%.3f",
                    static_cast<double>(e.dur_ns) * 1e-3);
      os << ",\"dur\":" << buf;
    }
    if (e.phase == 'i') os << ",\"s\":\"t\"";
    if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
      os << ",\"id\":" << e.flow_id;
      // Bind the arrow's end to the enclosing slice, the conventional
      // rendering for request flows.
      if (e.phase == 'f') os << ",\"bp\":\"e\"";
    }
    if (e.phase == 'C' && e.args_json.empty()) {
      std::snprintf(buf, sizeof buf, "%.17g", e.value);
      os << ",\"args\":{\"value\":" << buf << "}";
    } else if (!e.args_json.empty()) {
      os << ",\"args\":" << e.args_json;
    }
    os << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid << "}";
  }
  os << "],\"displayTimeUnit\":\"ns\"}\n";
}

void TraceSession::write_chrome_trace_file(const std::string& path) const {
  write_file(path, [this](std::ostream& os) { write_chrome_trace(os); });
}

}  // namespace resipe::telemetry
