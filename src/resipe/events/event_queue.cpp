#include "resipe/resipe/events/event_queue.hpp"

#include <algorithm>

#include "resipe/perf/work_model.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::resipe_core::events {

void EventQueue::build(std::span<const double> t_in, double slice_length) {
  RESIPE_TELEM_WORK("resipe_core.events.queue_build",
                    perf::event_queue_build_cost(t_in.size()));
  active_rows_.clear();
  total_rows_ = t_in.size();
  for (std::size_t r = 0; r < t_in.size(); ++r) {
    if (carries_spike(t_in[r], slice_length)) {
      active_rows_.push_back(static_cast<std::uint32_t>(r));
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
