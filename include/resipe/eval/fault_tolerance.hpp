// Fault-tolerance experiment: classification accuracy vs hard-defect
// rate, with the mitigation pipeline OFF (inject faults, run blind)
// and ON (statistical detection + spare-column remapping + differential
// compensation).
//
// Both arms share the fault realization (ReliabilityConfig::fault_seed
// is independent of the programming stream), so each sweep point is a
// paired comparison on identical defective silicon.  The zero-defect
// circuit baseline (reliability disabled entirely) anchors how much
// accuracy mitigation recovers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "resipe/nn/zoo.hpp"
#include "resipe/resipe/network.hpp"

namespace resipe::eval {

/// Knobs for the fault-tolerance sweep.
struct FaultToleranceConfig {
  nn::BenchmarkNet net = nn::BenchmarkNet::kMlp1;
  /// Total stuck-at cell rates swept (split evenly LRS/HRS).
  std::vector<double> defect_rates = {0.0025, 0.005, 0.01, 0.02, 0.05};
  /// Fraction of the defect budget placed as spatial clusters.
  double cluster_fraction = 0.25;
  /// Spare physical columns provisioned per tile block.
  std::size_t spare_cols = 4;
  std::size_t train_samples = 2500;
  std::size_t test_samples = 200;
  std::size_t epochs = 4;
  std::size_t mc_seeds = 2;          ///< fault/device realizations per rate
  bool verbose = false;
  std::uint64_t data_seed = 11;
  std::uint64_t fault_seed = 0xFA117u;
  /// Worker threads for the (rate, seed) Monte-Carlo arms (0 =
  /// default_threads(), 1 = serial).  Bit-identical for every value.
  std::size_t threads = 0;
};

/// One sweep point: paired accuracies plus the mitigation-arm health
/// counters (summed over Monte-Carlo seeds).
struct FaultTolerancePoint {
  double defect_rate = 0.0;
  double accuracy_off = 0.0;  ///< faults injected, mitigation disabled
  double accuracy_on = 0.0;   ///< faults injected, mitigation enabled
  std::size_t cells_faulty = 0;
  std::size_t columns_remapped = 0;
  std::size_t spares_used = 0;
  std::size_t columns_unrepairable = 0;
  std::size_t cells_compensated = 0;
  std::size_t degraded_outputs = 0;
};

/// Full sweep result for one network.
struct FaultToleranceResult {
  std::string network;
  double software_accuracy = 0.0;  ///< trained model, float math
  double baseline_accuracy = 0.0;  ///< circuit model, zero defects
  std::vector<FaultTolerancePoint> points;
};

/// Runs the sweep (trains the network, then evaluates every defect rate
/// with mitigation OFF and ON on shared fault maps).
FaultToleranceResult evaluate_fault_tolerance(
    const FaultToleranceConfig& config);

/// Renders the sweep as a table plus a recovery summary.
std::string render_fault_tolerance(const FaultToleranceResult& result);

}  // namespace resipe::eval
