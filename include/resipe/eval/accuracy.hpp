// Fig. 7: classification accuracy of the six benchmark networks under
// circuit non-linearity and ReRAM process variation.
//
// For each network: train (or load cached weights), measure the
// software ("ideal") accuracy, then map the network through the ReSiPE
// circuit model and re-measure while sweeping the device variation
// sigma over {0, 5, 10, 15, 20}% with Monte-Carlo re-programming.
// The sigma = 0 point isolates the non-linearity penalty (< 2.5% in
// the paper); growing sigma shows the PV penalty, which is larger for
// deeper networks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "resipe/nn/zoo.hpp"
#include "resipe/resipe/network.hpp"

namespace resipe::eval {

/// Knobs for the accuracy experiment.
struct AccuracyConfig {
  std::vector<double> sigmas = {0.0, 0.05, 0.10, 0.15, 0.20};
  std::size_t train_samples = 3000;  ///< scaled down per-net for CNNs
  std::size_t test_samples = 200;
  std::size_t epochs = 4;
  std::size_t mc_seeds = 2;          ///< device instantiations per sigma
  std::string weight_cache_dir;      ///< empty = no caching
  bool verbose = false;
  std::uint64_t data_seed = 11;
  /// Worker threads for the Monte-Carlo arms (0 = default_threads(),
  /// i.e. RESIPE_THREADS or the hardware count; 1 = serial).  Results
  /// are bit-identical for every value — see DESIGN.md "Parallel
  /// runtime".
  std::size_t threads = 0;
};

/// Accuracy of one network across the sigma sweep.
struct NetworkAccuracy {
  std::string name;
  double software_accuracy = 0.0;  ///< trained model, float math
  std::vector<double> sigmas;
  std::vector<double> accuracy;    ///< mean over Monte-Carlo seeds

  /// Accuracy drop at a sweep index, relative to software accuracy.
  double drop(std::size_t i) const { return software_accuracy - accuracy[i]; }
};

/// Runs the experiment for one benchmark network.
NetworkAccuracy evaluate_network_accuracy(nn::BenchmarkNet net,
                                          const AccuracyConfig& config);

/// Renders the Fig. 7 table.
std::string render_accuracy(const std::vector<NetworkAccuracy>& rows);

}  // namespace resipe::eval
