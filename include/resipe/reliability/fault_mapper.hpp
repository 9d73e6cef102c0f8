// Statistical fault detection.
//
// The virtual-tile engine (ProgrammedMatrix) knows the injected ground
// truth, so `from_truth` derives the *detected* map from it with
// configurable miss / false-alarm rates: the imperfection of a real
// detector, without simulating its test pattern cell by cell.
#pragma once

#include "resipe/reliability/fault_model.hpp"

namespace resipe::reliability {

/// Detection imperfection model.
struct FaultMapperConfig {
  /// A real fault is missed with `miss_rate`; a healthy cell is flagged
  /// (stuck-at-HRS, the conservative guess) with `false_alarm_rate`.
  double miss_rate = 0.0;
  double false_alarm_rate = 0.0;

  void validate() const;
};

/// Statistical fault detector.
class FaultMapper {
 public:
  explicit FaultMapper(FaultMapperConfig config = {});

  const FaultMapperConfig& config() const { return config_; }

  /// The detected map equals `truth` except for missed faults / false
  /// alarms drawn from `rng` per the config.
  FaultMap from_truth(const FaultMap& truth, Rng& rng) const;

 private:
  FaultMapperConfig config_;
};

}  // namespace resipe::reliability
