// Seeded generation of randomized verification cases.
//
// Every case is a pure function of a (schema_version, seed) pair: the
// generator derives all draws from hash_seed(seed, kSchemaVersion), so
// a failure report is replayable forever from two integers — no stored
// blobs, no environment dependence.  Bump kSchemaVersion whenever the
// sampling *distribution* changes (new knob, new range): old seeds then
// keep reproducing under the old meaning via the committed corpus while
// fresh fuzz runs explore the new space.
//
// EngineConfig::validate() and ServeConfig::validate() define the
// valid domain — the generator only emits configs that pass them
// (asserted at generation time), so a contract failure is always an
// engine bug, never an out-of-contract input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "resipe/resipe/network.hpp"
#include "resipe/serve/config.hpp"

namespace resipe::verify {

/// Version of the generator's sampling schema.
/// v2: added the serving-layer draws (ServeConfig) at the end of the
/// stream — earlier draws are unchanged, so v1 corpus entries replay
/// from their serialized specs exactly as before.
/// v3: appended the event-engine flag draw (EventConfig::enabled)
/// after the v2 serving draws, same append-only discipline.
inline constexpr std::uint32_t kSchemaVersion = 3;

/// Replayable identity of one generated case.
struct CaseDescriptor {
  std::uint32_t schema_version = kSchemaVersion;
  std::uint64_t seed = 0;
};

/// One concrete verification case: an engine configuration, the
/// serving configuration a chip pool of it runs under, and the
/// geometry / network shape the contracts exercise them with.
struct CaseSpec {
  CaseDescriptor descriptor;

  /// Engine configuration under test (always passes validate()).
  resipe_core::EngineConfig config;

  /// Serving configuration the serving contracts run the pool and
  /// scheduler under (always passes validate()).
  serve::ServeConfig serve;

  /// Raw crossbar geometry for tile-level contracts.
  std::size_t rows = 4;
  std::size_t cols = 4;

  /// Network shape for engine-level contracts: input width, hidden
  /// layer widths (possibly empty), output class count, batch size.
  std::size_t inputs = 4;
  std::vector<std::size_t> layers;
  std::size_t classes = 2;
  std::size_t batch = 1;

  /// One-line human-readable description (for reports and shrink logs).
  std::string summary() const;
};

/// Generates the case identified by `descriptor` (deterministic).
/// Throws resipe::Error for unknown schema versions.
CaseSpec generate_case(const CaseDescriptor& descriptor);

}  // namespace resipe::verify
