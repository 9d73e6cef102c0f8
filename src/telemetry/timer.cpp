#include "resipe/telemetry/timer.hpp"

#include <chrono>
#include <cstring>
#include <mutex>
#include <sstream>

#include "resipe/common/parallel.hpp"
#include "resipe/common/table.hpp"
#include "resipe/telemetry/metrics.hpp"
#include "resipe/telemetry/trace.hpp"

namespace resipe::telemetry {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

ProfileNode* find_child(ProfileNode& node, const char* name) {
  for (auto& c : node.children) {
    // Span names are string literals, so pointer equality catches the
    // common case; strcmp handles distinct literals with equal text.
    if (c->name == name || std::strcmp(c->name, name) == 0) return c.get();
  }
  return nullptr;
}

}  // namespace

ProfileNode& ProfileNode::child(const char* child_name) {
  if (ProfileNode* c = find_child(*this, child_name)) return *c;
  children.push_back(std::make_unique<ProfileNode>());
  children.back()->name = child_name;
  return *children.back();
}

CallProfile& CallProfile::this_thread() {
  thread_local CallProfile profile;
  return profile;
}

void CallProfile::reset() {
  root_.children.clear();
  root_.count = 0;
  root_.total_ns = 0;
  root_.flops = 0.0;
  root_.bytes = 0.0;
  current_ = &root_;
}

namespace {

void render_node(const ProfileNode& node, std::size_t depth,
                 std::ostringstream& os) {
  const double total_s = static_cast<double>(node.total_ns) * 1e-9;
  const double mean_s =
      node.count > 0 ? total_s / static_cast<double>(node.count) : 0.0;
  os << std::string(2 * depth, ' ') << node.name << "  x" << node.count
     << "  total " << format_si(total_s, "s") << "  mean "
     << format_si(mean_s, "s");
  if (node.flops > 0.0 || node.bytes > 0.0) {
    os << "  [";
    if (node.total_ns > 0) {
      const double ns = static_cast<double>(node.total_ns);
      os << format_fixed(node.flops / ns) << " GFLOP/s, "
         << format_fixed(node.bytes / ns) << " GB/s, ";
    } else {
      os << "untimed, ";
    }
    os << format_fixed(node.bytes > 0.0 ? node.flops / node.bytes : 0.0)
       << " FLOP/B]";
  }
  os << "\n";
  for (const auto& c : node.children) render_node(*c, depth + 1, os);
}

}  // namespace

std::string CallProfile::render() const {
  std::ostringstream os;
  for (const auto& c : root_.children) render_node(*c, 0, os);
  return os.str();
}

void book_work(const char* name, const WorkCost& cost) {
  ProfileNode& node = CallProfile::this_thread().current()->child(name);
  node.count += 1;
  node.flops += cost.flops;
  node.bytes += cost.bytes;
}

void ScopedTimer::enter(const WorkCost& cost) noexcept {
  CallProfile& profile = CallProfile::this_thread();
  parent_ = profile.current();
  node_ = &parent_->child(name_);
  node_->flops += cost.flops;
  node_->bytes += cost.bytes;
  profile.set_current(node_);
  active_ = true;
  start_ns_ = now_ns();
}

void ScopedTimer::leave() {
  const std::uint64_t dur = now_ns() - start_ns_;
  node_->count += 1;
  node_->total_ns += dur;
  CallProfile::this_thread().set_current(parent_);
  TraceSession& session = TraceSession::instance();
  if (session.active()) session.record_complete(name_, start_ns_, dur);
}

// --- parallel regions --------------------------------------------------
//
// Every thread taking part in a pool region (the caller included)
// counts into a local shard and records its spans into a fresh region
// subtree.  At region end each thread flushes its shard and, if it
// recorded anything, folds its subtree into one pending tree; once the
// pool has joined, the caller folds that tree into the node it had open
// when the region began.  Pool regions run one at a time, and every
// thread_end returns before the join, so one pending tree suffices and
// the join reads it without the lock.  With telemetry off nothing is
// recorded, and no lock is taken nor memory allocated.

namespace detail {
thread_local CounterShard* t_counter_shard = nullptr;
}  // namespace detail

#if !defined(RESIPE_TELEMETRY_DISABLED)
namespace {

thread_local CounterShard t_region_shard;
thread_local ProfileNode t_region_tree;
thread_local ProfileNode* t_region_anchor = nullptr;

std::mutex g_pending_mu;  // guards g_pending while threads end a region
ProfileNode g_pending;

// Adds `from`'s count, time and work into `into` and merges its children
// into `into`'s by name, recursively; leaves `from` childless.
void fold(ProfileNode& into, ProfileNode& from) {
  into.count += from.count;
  into.total_ns += from.total_ns;
  into.flops += from.flops;
  into.bytes += from.bytes;
  for (auto& c : from.children) {
    if (ProfileNode* mine = find_child(into, c->name)) {
      fold(*mine, *c);
    } else {
      into.children.push_back(std::move(c));
    }
  }
  from.children.clear();
}

void region_begin() noexcept {
  detail::t_counter_shard = &t_region_shard;
  CallProfile& profile = CallProfile::this_thread();
  t_region_anchor = profile.current();
  profile.set_current(&t_region_tree);
  // Label this thread's trace lane once, so chrome://tracing shows
  // "worker-N" instead of a bare tid.  First-wins naming keeps the
  // caller thread's "main" label when it participates in a region.
  thread_local bool named = false;
  if (!named) {
    named = true;
    const std::uint32_t tid = TraceSession::current_thread_id();
    TraceSession::instance().set_thread_name(
        1, tid, "worker-" + std::to_string(tid));
  }
}

void region_end() noexcept {
  t_region_shard.flush();
  detail::t_counter_shard = nullptr;
  CallProfile::this_thread().set_current(t_region_anchor);
  if (t_region_tree.children.empty()) return;
  const std::lock_guard<std::mutex> lock(g_pending_mu);
  fold(g_pending, t_region_tree);
}

void region_join() noexcept {
  if (g_pending.children.empty()) return;
  fold(*CallProfile::this_thread().current(), g_pending);
}

// The hook slots in resipe_common are constant-initialized atomics, so
// registering from a dynamic initializer is order-safe.
const bool g_hooks_installed = [] {
  ParallelHooks hooks;
  hooks.thread_begin = &region_begin;
  hooks.thread_end = &region_end;
  hooks.join = &region_join;
  set_parallel_hooks(hooks);
  return true;
}();

}  // namespace
#endif  // !RESIPE_TELEMETRY_DISABLED

}  // namespace resipe::telemetry
