// Open-loop traffic generation for the serving layer.
//
// Open-loop means arrivals do not wait for responses — the canonical
// saturation-test methodology: a Poisson process at rate lambda keeps
// offering load whether or not the system keeps up, which is what
// exposes the latency knee and the shedding behavior past it.
// Deterministic given the seed (exponential inter-arrivals via inverse
// CDF from the repo's xoshiro Rng).
#pragma once

#include <cstdint>
#include <vector>

#include "resipe/nn/tensor.hpp"
#include "resipe/serve/scheduler.hpp"

namespace resipe::serve {

/// Knobs of one generated trace.
struct TrafficConfig {
  double rate = 1000.0;      ///< mean arrivals per virtual second (> 0)
  double duration = 0.1;     ///< virtual seconds of arrivals (> 0)
  /// Relative deadline stamped on every request; 0 = leave 0 so the
  /// scheduler applies ServeConfig::default_deadline.
  double deadline = 0.0;
  std::uint64_t seed = 1;    ///< inter-arrival + sample-pick stream
  std::uint64_t first_id = 0;
  /// Number of tenants (SLO buckets) to spread requests over; each
  /// request's tenant is hash_seed(seed, id) % tenants — a pure
  /// function of the id, drawing nothing from the arrival stream, so
  /// tenants = 1 (the default) generates the exact same trace as
  /// before the field existed.
  std::uint64_t tenants = 1;
};

/// Draws a Poisson arrival trace whose request inputs are rows sampled
/// uniformly (with replacement) from `samples` ([n, ...]; each row is
/// flattened).  Request.tag records the sampled row index so callers
/// can join responses back to labels.
std::vector<Request> poisson_traffic(const nn::Tensor& samples,
                                     const TrafficConfig& config);

/// Accuracy of the served answers of a trace: the fraction of served
/// responses whose logits' argmax equals labels[tag] (tag is the row
/// poisson_traffic sampled); 0 when nothing was served.  Throws
/// resipe::Error naming the response id when a tag is not a row of
/// `labels`.
double served_accuracy(const std::vector<Response>& responses,
                       const std::vector<int>& labels);

}  // namespace resipe::serve
