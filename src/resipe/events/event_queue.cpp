#include "resipe/resipe/events/event_queue.hpp"

#include <algorithm>

#include "resipe/common/error.hpp"
#include "resipe/perf/work_model.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::resipe_core::events {

void EventQueue::build(std::span<const double> t_in, double slice_length,
                       std::size_t n) {
  RESIPE_REQUIRE(n > 0 && t_in.size() % n == 0,
                 "EventQueue: " << t_in.size()
                                << " spike times do not split into " << n
                                << " samples");
  RESIPE_TELEM_WORK("resipe_core.events.queue_build",
                    perf::event_queue_build_cost(t_in.size()));
  const std::size_t rows = t_in.size() / n;
  active_rows_.clear();
  total_rows_ = rows;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t s = 0; s < n; ++s) {
      if (carries_spike(t_in[s * rows + r], slice_length)) {
        active_rows_.push_back(static_cast<std::uint32_t>(r));
        break;
      }
    }
  }
  RESIPE_TELEM_COUNT("resipe_core.events.queued", active_rows_.size());
}

std::span<const std::uint32_t> EventQueue::rows_in_range(
    std::size_t row0, std::size_t rows) const {
  const auto lo = std::lower_bound(active_rows_.begin(), active_rows_.end(),
                                   static_cast<std::uint32_t>(row0));
  const auto hi = std::lower_bound(lo, active_rows_.end(),
                                   static_cast<std::uint32_t>(row0 + rows));
  return {std::to_address(lo), static_cast<std::size_t>(hi - lo)};
}

}  // namespace resipe::resipe_core::events
