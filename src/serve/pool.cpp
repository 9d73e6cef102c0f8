#include "resipe/serve/pool.hpp"

#include <cmath>

#include "resipe/common/error.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/resipe/chip.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::serve {

namespace {

// Canary-selection RNG stream (decorrelated from backoff jitter, which
// uses per-request streams).
constexpr std::uint64_t kStreamCanary = 0x5E12E001ull;

}  // namespace

const char* to_string(ChipState s) {
  switch (s) {
    case ChipState::kQuarantined:
      return "quarantined";
    default:
      return "healthy";
  }
}

ChipPool::ChipPool(
    nn::Sequential& model, const nn::Tensor& calibration,
    const std::vector<resipe_core::EngineConfig>& replica_configs,
    const ServeConfig& config)
    : config_(config) {
  config_.validate();
  RESIPE_REQUIRE(!replica_configs.empty(),
                 "a chip pool needs at least one replica");
  RESIPE_REQUIRE(calibration.rank() >= 2,
                 "pool calibration must be a batch tensor, got shape "
                     << calibration.shape_str());
  const std::size_t calib_n = calibration.dim(0);
  RESIPE_REQUIRE(calib_n > 0, "pool calibration batch is empty");

  input_shape_.assign(calibration.shape().begin() + 1,
                      calibration.shape().end());
  input_size_ = 1;
  for (const std::size_t d : input_shape_) input_size_ *= d;

  // Chip-level timing model shared by all replicas (geometry and
  // circuit operating point come from the first config; replicas are
  // the same design, just different silicon instances).
  const auto& cfg0 = replica_configs[0];
  resipe_core::ChipConfig chip_cfg;
  chip_cfg.circuit = cfg0.circuit;
  chip_cfg.device = cfg0.device;
  chip_cfg.tile_rows = cfg0.tile_rows;
  chip_cfg.tile_cols = cfg0.tile_cols;
  chip_cfg.cols_per_logical =
      cfg0.mapping == crossbar::SignedMapping::kOffsetColumn ? 1 : 2;
  // map_network wants a {channels, height, width} shape; flat MLP
  // inputs map as a single 1 x W row.
  std::vector<std::size_t> map_shape = input_shape_;
  while (map_shape.size() < 3) map_shape.insert(map_shape.begin(), 1);
  const resipe_core::ChipReport chip_report =
      resipe_core::map_network(model, map_shape, chip_cfg);

  chips_.reserve(replica_configs.size());
  for (const auto& rc : replica_configs) {
    rc.validate();
    Chip chip;
    chip.network =
        std::make_unique<resipe_core::ResipeNetwork>(model, rc, calibration);
    chip.fill_latency = chip_report.input_latency;
    chip.initiation_interval = chip_report.initiation_interval;
    chips_.push_back(std::move(chip));
  }

  // Golden reference: the same design with clean silicon.  Canary
  // comparisons are against this lowering, not the software model, so
  // the probe measures *degradation*, not the circuit's intrinsic
  // nonlinearity penalty.
  resipe_core::EngineConfig golden_cfg = cfg0;
  golden_cfg.reliability.enabled = false;
  golden_cfg.retention_time = 0.0;
  golden_ = std::make_unique<resipe_core::ResipeNetwork>(model, golden_cfg,
                                                         calibration);

  // Fixed canary batch: a deterministic sample of calibration rows.
  const std::size_t n_canary =
      std::min(config_.health.canary_images, calib_n);
  Rng rng(hash_seed(config_.seed, kStreamCanary));
  const std::vector<std::size_t> order = rng.permutation(calib_n);
  std::vector<std::size_t> shape = {n_canary};
  shape.insert(shape.end(), input_shape_.begin(), input_shape_.end());
  canaries_ = nn::Tensor(shape);
  for (std::size_t i = 0; i < n_canary; ++i) {
    const std::size_t row = order[i];
    for (std::size_t j = 0; j < input_size_; ++j) {
      canaries_[i * input_size_ + j] =
          calibration[row * input_size_ + j];
    }
  }
  golden_logits_ = golden_->forward(canaries_);
}

std::size_t ChipPool::healthy_count() const {
  std::size_t n = 0;
  for (const Chip& c : chips_) {
    if (c.status.state == ChipState::kHealthy) ++n;
  }
  return n;
}

const ChipStatus& ChipPool::status(std::size_t chip) const {
  RESIPE_REQUIRE(chip < chips_.size(), "chip index " << chip
                     << " out of range (pool of " << chips_.size() << ")");
  return chips_[chip].status;
}

nn::Tensor ChipPool::infer(std::size_t chip, const nn::Tensor& batch) {
  RESIPE_REQUIRE(chip < chips_.size(), "chip index " << chip
                     << " out of range (pool of " << chips_.size() << ")");
  RESIPE_TELEM_SCOPE("serve.pool.infer");
  Chip& c = chips_[chip];
  c.status.batches_served += 1;
  c.status.requests_served += batch.dim(0);
  return c.network->forward(batch);
}

std::size_t ChipPool::degraded_outputs(std::size_t chip) const {
  RESIPE_REQUIRE(chip < chips_.size(), "chip index " << chip
                     << " out of range (pool of " << chips_.size() << ")");
  return chips_[chip].network->degraded_outputs();
}

double ChipPool::service_time(std::size_t chip, std::size_t n) const {
  RESIPE_REQUIRE(chip < chips_.size(), "chip index " << chip
                     << " out of range (pool of " << chips_.size() << ")");
  RESIPE_REQUIRE(n > 0, "service time of an empty batch");
  const Chip& c = chips_[chip];
  return c.fill_latency +
         static_cast<double>(n - 1) * c.initiation_interval;
}

bool ChipPool::probe(Chip& chip) {
  const nn::Tensor logits = chip.network->forward(canaries_);
  const std::size_t n = canaries_.dim(0);
  std::size_t mismatched = 0;
  double sq_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (logits.argmax_row(i) != golden_logits_.argmax_row(i)) ++mismatched;
  }
  for (std::size_t k = 0; k < logits.size(); ++k) {
    const double d = logits[k] - golden_logits_[k];
    sq_sum += d * d;
  }
  const double mismatch =
      static_cast<double>(mismatched) / static_cast<double>(n);
  const double rmse =
      std::sqrt(sq_sum / static_cast<double>(logits.size()));
  chip.status.last_canary_mismatch = mismatch;
  chip.status.last_canary_rmse = rmse;
  return mismatch <= config_.health.max_canary_mismatch &&
         rmse <= config_.health.logit_rmse_limit;
}

std::size_t ChipPool::run_probe_round() {
  RESIPE_TELEM_SCOPE("serve.pool.probe_round");
  std::size_t transitions = 0;
  for (Chip& chip : chips_) {
    const bool clean = probe(chip);
    ChipStatus& st = chip.status;
    st.probes += 1;
    RESIPE_TELEM_COUNT("serve.pool.probes", 1);
    if (clean) {
      st.consecutive_clean += 1;
      st.consecutive_failed = 0;
      if (st.state == ChipState::kQuarantined &&
          st.consecutive_clean >= config_.health.readmit_after) {
        st.state = ChipState::kHealthy;
        st.readmissions += 1;
        ++transitions;
        RESIPE_TELEM_COUNT("serve.pool.readmissions", 1);
      }
    } else {
      st.consecutive_failed += 1;
      st.consecutive_clean = 0;
      RESIPE_TELEM_COUNT("serve.pool.probe_failures", 1);
      if (st.state == ChipState::kHealthy &&
          st.consecutive_failed >= config_.health.quarantine_after) {
        st.state = ChipState::kQuarantined;
        st.quarantines += 1;
        ++transitions;
        RESIPE_TELEM_COUNT("serve.pool.quarantines", 1);
      }
    }
  }
  return transitions;
}

void ChipPool::force_quarantine(std::size_t chip) {
  RESIPE_REQUIRE(chip < chips_.size(), "chip index " << chip
                     << " out of range (pool of " << chips_.size() << ")");
  ChipStatus& st = chips_[chip].status;
  if (st.state == ChipState::kQuarantined) return;
  st.state = ChipState::kQuarantined;
  st.quarantines += 1;
  st.consecutive_clean = 0;
  RESIPE_TELEM_COUNT("serve.pool.quarantines", 1);
}

const resipe_core::ResipeNetwork& ChipPool::network(std::size_t chip) const {
  RESIPE_REQUIRE(chip < chips_.size(), "chip index " << chip
                     << " out of range (pool of " << chips_.size() << ")");
  return *chips_[chip].network;
}

}  // namespace resipe::serve
