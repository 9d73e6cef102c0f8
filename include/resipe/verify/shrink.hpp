// Greedy failure shrinker.
//
// A fuzz violation at xbar=29x11 with three hidden layers, faults,
// drift and IR drop is unreadable; the same violation at 2x2 with every
// flag off names the culprit.  The shrinker repeatedly tries a fixed
// catalogue of simplifying moves (shrink geometry, drop layers, disable
// subsystems, zero non-idealities) and keeps any move after which the
// *same* contract still fails — classic delta debugging, greedy
// restart-on-success.  Moves preserve EngineConfig::validate() and
// ServeConfig::validate() validity by construction, so a shrunk case
// is always replayable.
#pragma once

#include <cstddef>
#include <string>

#include "resipe/verify/contracts.hpp"
#include "resipe/verify/generators.hpp"

namespace resipe::verify {

/// Outcome of shrinking one failing case.
struct ShrinkResult {
  CaseSpec spec;            ///< the minimal failing case found
  std::size_t steps = 0;    ///< accepted moves
  std::size_t attempts = 0; ///< contract evaluations spent
  std::string detail;       ///< failure detail of the minimal case
  std::string log;          ///< one line per accepted move
};

/// Shrinks `failing` against `contract` (which must currently fail on
/// it — throws otherwise).  `max_attempts` bounds the total number of
/// contract evaluations.
ShrinkResult shrink_case(const CaseSpec& failing, const Contract& contract,
                         std::size_t max_attempts = 400);

}  // namespace resipe::verify
