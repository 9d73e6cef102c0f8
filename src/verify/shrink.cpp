#include "resipe/verify/shrink.hpp"

#include <functional>
#include <sstream>
#include <vector>

#include "resipe/common/error.hpp"

namespace resipe::verify {
namespace {

struct Move {
  const char* name;
  /// Applies the simplification; returns false when it is a no-op on
  /// the current spec (already minimal in that dimension).
  std::function<bool(CaseSpec&)> apply;
};

bool shrink_dim(std::size_t& dim, std::size_t target, std::size_t floor) {
  target = std::max(target, floor);
  if (dim <= target) return false;
  dim = target;
  return true;
}

std::vector<Move> move_catalogue() {
  std::vector<Move> moves;
  // Geometry first: the big readability win.  For each dimension try
  // the aggressive jump to 1, then halving, then decrement — the
  // greedy loop restarts after every accepted move, so the sequence
  // composes into a near-minimal value in O(log) accepted steps.
  moves.push_back({"rows->1", [](CaseSpec& s) {
                     return shrink_dim(s.rows, 1, 1);
                   }});
  moves.push_back({"rows/2", [](CaseSpec& s) {
                     return shrink_dim(s.rows, s.rows / 2, 1);
                   }});
  moves.push_back({"rows-1", [](CaseSpec& s) {
                     return shrink_dim(s.rows, s.rows - 1, 1);
                   }});
  moves.push_back({"cols->1", [](CaseSpec& s) {
                     return shrink_dim(s.cols, 1, 1);
                   }});
  moves.push_back({"cols/2", [](CaseSpec& s) {
                     return shrink_dim(s.cols, s.cols / 2, 1);
                   }});
  moves.push_back({"cols-1", [](CaseSpec& s) {
                     return shrink_dim(s.cols, s.cols - 1, 1);
                   }});
  moves.push_back({"inputs->1", [](CaseSpec& s) {
                     return shrink_dim(s.inputs, 1, 1);
                   }});
  moves.push_back({"inputs/2", [](CaseSpec& s) {
                     return shrink_dim(s.inputs, s.inputs / 2, 1);
                   }});
  moves.push_back({"classes->1", [](CaseSpec& s) {
                     return shrink_dim(s.classes, 1, 1);
                   }});
  moves.push_back({"classes/2", [](CaseSpec& s) {
                     return shrink_dim(s.classes, s.classes / 2, 1);
                   }});
  moves.push_back({"batch->1", [](CaseSpec& s) {
                     return shrink_dim(s.batch, 1, 1);
                   }});
  moves.push_back({"drop-last-layer", [](CaseSpec& s) {
                     if (s.layers.empty()) return false;
                     s.layers.pop_back();
                     return true;
                   }});
  moves.push_back({"drop-first-layer", [](CaseSpec& s) {
                     if (s.layers.empty()) return false;
                     s.layers.erase(s.layers.begin());
                     return true;
                   }});
  moves.push_back({"halve-layer-widths", [](CaseSpec& s) {
                     bool changed = false;
                     for (std::size_t& w : s.layers) {
                       changed |= shrink_dim(w, w / 2, 1);
                     }
                     return changed;
                   }});
  // Tile geometry: keep the paired-mapping evenness invariant.
  moves.push_back({"tile_rows/2", [](CaseSpec& s) {
                     return shrink_dim(s.config.tile_rows,
                                       s.config.tile_rows / 2, 1);
                   }});
  moves.push_back({"tile_cols/2", [](CaseSpec& s) {
                     const std::size_t floor =
                         s.config.mapping ==
                                 crossbar::SignedMapping::kOffsetColumn
                             ? 1
                             : 2;
                     std::size_t half = s.config.tile_cols / 2;
                     if (half % 2 != 0 && floor == 2) ++half;
                     return shrink_dim(s.config.tile_cols, half, floor);
                   }});
  // Subsystem switches.
  moves.push_back({"reliability-off", [](CaseSpec& s) {
                     if (!s.config.reliability.enabled) return false;
                     s.config.reliability.enabled = false;
                     return true;
                   }});
  moves.push_back({"mitigation-off", [](CaseSpec& s) {
                     if (!s.config.reliability.mitigation.enabled) {
                       return false;
                     }
                     s.config.reliability.mitigation.enabled = false;
                     return true;
                   }});
  moves.push_back({"events-off", [](CaseSpec& s) {
                     if (!s.config.events.enabled) return false;
                     s.config.events.enabled = false;
                     return true;
                   }});
  moves.push_back({"quantize-off", [](CaseSpec& s) {
                     if (!s.config.quantize_spikes) return false;
                     s.config.quantize_spikes = false;
                     return true;
                   }});
  moves.push_back({"ir-drop-off", [](CaseSpec& s) {
                     if (!s.config.model_wire_ir_drop) return false;
                     s.config.model_wire_ir_drop = false;
                     return true;
                   }});
  // Non-ideality zeroing.
  const auto zero = [](double& field) {
    if (field == 0.0) return false;
    field = 0.0;
    return true;
  };
  moves.push_back({"variation->0", [zero](CaseSpec& s) {
                     return zero(s.config.device.variation_sigma);
                   }});
  moves.push_back({"read-noise->0", [zero](CaseSpec& s) {
                     return zero(s.config.device.read_noise_sigma);
                   }});
  moves.push_back({"write-tol->0", [zero](CaseSpec& s) {
                     return zero(s.config.device.write_verify_tolerance);
                   }});
  moves.push_back({"r_on->0", [zero](CaseSpec& s) {
                     return zero(s.config.device.transistor_r_on);
                   }});
  moves.push_back({"comparator->ideal", [zero](CaseSpec& s) {
                     bool changed = zero(s.config.circuit.comparator_offset);
                     changed |= zero(s.config.circuit.comparator_delay);
                     changed |=
                         zero(s.config.circuit.comparator_offset_sigma);
                     return changed;
                   }});
  moves.push_back({"retention->0", [zero](CaseSpec& s) {
                     const bool changed = zero(s.config.retention_time);
                     if (changed) s.config.device.drift_nu = 0.0;
                     return changed;
                   }});
  moves.push_back({"serve->defaults", [](CaseSpec& s) {
                     const serve::ServeConfig defaults;
                     // Field-wise compare: ServeConfig is aggregate-only.
                     const bool already =
                         s.serve.queue_capacity == defaults.queue_capacity &&
                         s.serve.batch_max == defaults.batch_max &&
                         s.serve.batch_window == defaults.batch_window &&
                         s.serve.default_deadline ==
                             defaults.default_deadline &&
                         s.serve.retry_max == defaults.retry_max &&
                         s.serve.seed == defaults.seed;
                     if (already) return false;
                     s.serve = defaults;
                     return true;
                   }});
  moves.push_back({"fault-rates->0", [zero](CaseSpec& s) {
                     bool changed =
                         zero(s.config.reliability.faults.stuck_lrs_rate);
                     changed |=
                         zero(s.config.reliability.faults.stuck_hrs_rate);
                     changed |=
                         zero(s.config.reliability.faults.cluster_fraction);
                     return changed;
                   }});
  return moves;
}

bool still_fails(const Contract& contract, const CaseSpec& spec) {
  try {
    spec.config.validate();
    spec.serve.validate();
  } catch (const std::exception&) {
    return false;  // a move produced an invalid spec: reject it
  }
  try {
    return contract.check(spec).violated();
  } catch (const std::exception&) {
    // A throwing contract is also a failure mode worth minimizing —
    // treat it as "still failing" so the reproducer stays small.
    return true;
  }
}

}  // namespace

ShrinkResult shrink_case(const CaseSpec& failing, const Contract& contract,
                         std::size_t max_attempts) {
  RESIPE_REQUIRE(still_fails(contract, failing),
                 "shrink_case needs a case that fails contract '"
                     << contract.name << "'");
  ShrinkResult result;
  result.spec = failing;
  result.attempts = 1;

  const std::vector<Move> moves = move_catalogue();
  std::ostringstream log;
  bool progressed = true;
  while (progressed && result.attempts < max_attempts) {
    progressed = false;
    for (const Move& move : moves) {
      if (result.attempts >= max_attempts) break;
      CaseSpec candidate = result.spec;
      if (!move.apply(candidate)) continue;
      ++result.attempts;
      if (still_fails(contract, candidate)) {
        result.spec = std::move(candidate);
        ++result.steps;
        log << move.name << " -> " << result.spec.summary() << "\n";
        progressed = true;
        break;  // greedy restart: re-try the aggressive moves first
      }
    }
  }

  const ContractResult final_result = [&] {
    try {
      return contract.check(result.spec);
    } catch (const std::exception& e) {
      return ContractResult::fail(std::string("contract threw: ") + e.what());
    }
  }();
  result.detail = final_result.detail;
  result.log = log.str();
  return result;
}

}  // namespace resipe::verify
