#include "resipe/reliability/fault_mapper.hpp"

#include "resipe/common/error.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::reliability {

void FaultMapperConfig::validate() const {
  RESIPE_REQUIRE(miss_rate >= 0.0 && miss_rate <= 1.0 &&
                     false_alarm_rate >= 0.0 && false_alarm_rate <= 1.0,
                 "detection error rates must be probabilities");
}

FaultMapper::FaultMapper(FaultMapperConfig config) : config_(config) {
  config_.validate();
}

FaultMap FaultMapper::from_truth(const FaultMap& truth, Rng& rng) const {
  FaultMap detected(truth.rows(), truth.cols());
  std::size_t faulty = 0;
  for (std::size_t r = 0; r < truth.rows(); ++r) {
    for (std::size_t c = 0; c < truth.cols(); ++c) {
      const FaultType f = truth.at(r, c);
      if (f != FaultType::kNone) {
        if (config_.miss_rate > 0.0 && rng.bernoulli(config_.miss_rate)) {
          continue;  // missed fault
        }
        detected.set(r, c, f);
        ++faulty;
      } else if (config_.false_alarm_rate > 0.0 &&
                 rng.bernoulli(config_.false_alarm_rate)) {
        detected.set(r, c, FaultType::kStuckHrs);
        ++faulty;
      }
    }
  }
  RESIPE_TELEM_COUNT("reliability.cells_tested",
                     truth.rows() * truth.cols());
  RESIPE_TELEM_COUNT("reliability.cells_detected", faulty);
  return detected;
}

}  // namespace resipe::reliability
