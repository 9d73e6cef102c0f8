#include "resipe/serve/traffic.hpp"

#include <cmath>

#include "resipe/common/error.hpp"
#include "resipe/common/rng.hpp"

namespace resipe::serve {

std::vector<Request> poisson_traffic(const nn::Tensor& samples,
                                     const TrafficConfig& config) {
  RESIPE_REQUIRE(config.rate > 0.0 && std::isfinite(config.rate),
                 "traffic rate must be positive, got " << config.rate);
  RESIPE_REQUIRE(config.duration > 0.0 && std::isfinite(config.duration),
                 "traffic duration must be positive, got "
                     << config.duration);
  RESIPE_REQUIRE(config.deadline >= 0.0 && std::isfinite(config.deadline),
                 "traffic deadline must be >= 0, got " << config.deadline);
  RESIPE_REQUIRE(config.tenants > 0,
                 "traffic needs at least one tenant");
  RESIPE_REQUIRE(samples.rank() >= 2,
                 "traffic samples must be a batch tensor, got shape "
                     << samples.shape_str());
  const std::size_t n = samples.dim(0);
  RESIPE_REQUIRE(n > 0, "traffic sample pool is empty");
  const std::size_t width = samples.size() / n;

  Rng rng(config.seed);
  std::vector<Request> trace;
  double t = 0.0;
  std::uint64_t k = 0;
  for (;;) {
    // Exponential inter-arrival via inverse CDF; 1 - u is in (0, 1].
    t += -std::log(1.0 - rng.uniform()) / config.rate;
    if (t >= config.duration) break;
    const auto row = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    Request req;
    req.id = config.first_id + k++;
    req.tag = row;
    // Hash of the id, not an rng draw: the arrival/sample streams stay
    // bit-identical whatever `tenants` is set to.
    req.tenant = hash_seed(config.seed, req.id) % config.tenants;
    req.arrival = t;
    req.deadline = config.deadline > 0.0 ? t + config.deadline : 0.0;
    req.input.assign(
        samples.data().begin() + static_cast<std::ptrdiff_t>(row * width),
        samples.data().begin() +
            static_cast<std::ptrdiff_t>((row + 1) * width));
    trace.push_back(std::move(req));
  }
  return trace;
}

double served_accuracy(const std::vector<Response>& responses,
                       const std::vector<int>& labels) {
  std::size_t correct = 0, served = 0;
  for (const Response& r : responses) {
    if (!r.served()) continue;
    RESIPE_REQUIRE(r.tag < labels.size(),
                   "response " << r.id << " has tag " << r.tag
                               << ", past the " << labels.size()
                               << " labels");
    ++served;
    std::size_t best = 0;
    for (std::size_t j = 1; j < r.logits.size(); ++j) {
      if (r.logits[j] > r.logits[best]) best = j;
    }
    if (static_cast<int>(best) == labels[r.tag]) ++correct;
  }
  return served > 0 ? static_cast<double>(correct) /
                          static_cast<double>(served)
                    : 0.0;
}

}  // namespace resipe::serve
