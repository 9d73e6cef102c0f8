// Serving-layer configuration: admission control, batching, deadlines,
// retry/backoff and chip-pool health checking.
//
// Header-only, so the verify fuzzer's CaseSpec can carry one without
// linking the serving runtime (the resipe_serve library).  ChipPool and
// Scheduler each take a ServeConfig; the inference engine never reads
// one: a ServeConfig cannot change logits, only how requests are
// queued, batched, retried and routed above the engine.
//
// Every duration is in *virtual* seconds — the scheduler runs on a
// deterministic virtual clock (see scheduler.hpp), so a serving trace
// is a pure function of (traffic, pool, config) and replays
// bit-identically at any thread count.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "resipe/common/error.hpp"

namespace resipe::serve {

/// Health-checking policy of the chip pool: periodic canary inferences
/// compared against golden logits captured from a fault-free reference
/// lowering of the same model.
struct HealthConfig {
  /// Virtual seconds between probe rounds (every pool member is probed
  /// each round).  Must be positive.
  double canary_period = 2e-3;
  /// Canary inputs per probe round (drawn once, deterministically, from
  /// the pool's calibration set).  At least 1.
  std::size_t canary_images = 8;
  /// A probe fails when the fraction of canaries whose argmax disagrees
  /// with the golden reference exceeds this tolerance...
  double max_canary_mismatch = 0.25;
  /// ...or when the RMS deviation of canary logits from the golden
  /// logits exceeds this limit (absolute, logit units; infinity = only
  /// the argmax criterion applies).
  double logit_rmse_limit = 0.5;
  /// Consecutive failing probe rounds before the chip is quarantined.
  std::size_t quarantine_after = 1;
  /// Consecutive clean probe rounds before a quarantined chip is
  /// re-admitted to the serving rotation.
  std::size_t readmit_after = 3;

  void validate() const {
    RESIPE_REQUIRE(std::isfinite(canary_period) && canary_period > 0.0,
                   "health canary period must be positive and finite, got "
                       << canary_period);
    RESIPE_REQUIRE(canary_images >= 1,
                   "health probes need at least one canary image");
    RESIPE_REQUIRE(max_canary_mismatch >= 0.0 && max_canary_mismatch <= 1.0,
                   "canary mismatch tolerance must be in [0, 1], got "
                       << max_canary_mismatch);
    RESIPE_REQUIRE(!(logit_rmse_limit < 0.0) &&
                       !std::isnan(logit_rmse_limit),
                   "canary logit RMSE limit must be non-negative, got "
                       << logit_rmse_limit);
    RESIPE_REQUIRE(quarantine_after >= 1,
                   "quarantine threshold must be at least one failing round");
    RESIPE_REQUIRE(readmit_after >= 1,
                   "readmission threshold must be at least one clean round");
  }
};

/// Scheduler + admission + retry knobs.  validate() defines the legal
/// domain; the verify generator draws only inside it (the PR 5
/// generator-range == validate-domain invariant).
struct ServeConfig {
  /// Bounded request queue: arrivals beyond this depth are shed with an
  /// explicit Rejected{kQueueFull} result, never silently dropped.
  /// Must be positive — a zero-capacity queue cannot admit anything.
  std::size_t queue_capacity = 64;

  /// Largest batch handed to one chip (feeds
  /// ProgrammedMatrix::forward_batch / FastMvm::mvm_times_batch).
  std::size_t batch_max = 8;

  /// How long (virtual s) an open batch waits for more requests before
  /// dispatching partially full.  0 = dispatch immediately.
  double batch_window = 200e-6;

  /// Deadline granted to requests that do not carry their own, relative
  /// to arrival (virtual s).  Expired requests are shed, not served.
  double default_deadline = 20e-3;

  /// Bounded retry budget when a response carries fault-flagged outputs
  /// (ProgrammedMatrix::output_ok): total attempts = retry_max + 1.
  /// Kept small and bounded — runaway retries are an outage amplifier.
  int retry_max = 2;
  static constexpr int kRetryCeiling = 16;

  /// Exponential backoff between retry attempts: the n-th retry waits
  /// min(backoff_max, backoff_base * backoff_multiplier^(n-1)) scaled
  /// by (1 + U[0, backoff_jitter)) with a deterministic per-(request,
  /// attempt) jitter stream derived from `seed`.
  double backoff_base = 100e-6;
  double backoff_multiplier = 2.0;
  double backoff_max = 5e-3;
  double backoff_jitter = 0.1;

  /// Chip-pool health checking.
  HealthConfig health;

  /// Seed of the serving-side randomness (backoff jitter, canary
  /// selection).  Independent of the engine's program/fault seeds.
  std::uint64_t seed = 0x5E12F00Dull;

  void validate() const {
    RESIPE_REQUIRE(queue_capacity > 0,
                   "serve queue capacity must be positive, got "
                       << queue_capacity);
    RESIPE_REQUIRE(batch_max > 0,
                   "serve batch size must be positive, got " << batch_max);
    RESIPE_REQUIRE(std::isfinite(batch_window) && batch_window >= 0.0,
                   "serve batch window must be non-negative and finite, got "
                       << batch_window);
    RESIPE_REQUIRE(std::isfinite(default_deadline) && default_deadline > 0.0,
                   "serve default deadline must be positive and finite, got "
                       << default_deadline);
    RESIPE_REQUIRE(retry_max >= 0 && retry_max <= kRetryCeiling,
                   "serve retry budget must be in [0, " << kRetryCeiling
                       << "], got " << retry_max);
    RESIPE_REQUIRE(std::isfinite(backoff_base) && backoff_base > 0.0,
                   "serve backoff base must be positive and finite, got "
                       << backoff_base);
    RESIPE_REQUIRE(std::isfinite(backoff_multiplier) &&
                       backoff_multiplier >= 1.0,
                   "serve backoff multiplier must be >= 1, got "
                       << backoff_multiplier);
    RESIPE_REQUIRE(std::isfinite(backoff_max) &&
                       backoff_max >= backoff_base,
                   "serve backoff cap must be >= the base, got "
                       << backoff_max << " < " << backoff_base);
    RESIPE_REQUIRE(backoff_jitter >= 0.0 && backoff_jitter <= 1.0,
                   "serve backoff jitter must be in [0, 1], got "
                       << backoff_jitter);
    health.validate();
  }
};

}  // namespace resipe::serve
