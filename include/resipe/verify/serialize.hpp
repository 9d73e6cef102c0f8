// Reproducer records: self-contained serialization of a (CaseSpec,
// contract) pair.
//
// A fuzz failure is only worth finding once: the shrinker's minimal
// spec is written as a flat JSON object that the corpus replayer (and a
// human) can reconstruct exactly — every field the contracts read is
// serialized explicitly, so a repro keeps working even after the
// generator's sampling schema moves on.  64-bit seeds are emitted as
// JSON strings (a double-typed number would corrupt them past 2^53).
// The writer and the reader walk one field list, so a key's name,
// position, type and quoting are stated once.
#pragma once

#include <string>

#include "resipe/verify/generators.hpp"

namespace resipe::verify {

/// One failure reproducer: the (possibly shrunk) case plus the contract
/// it violates.
struct ReproRecord {
  CaseSpec spec;
  std::string contract;  ///< contract name (see contract_registry())
  std::string detail;    ///< failure description at record time
};

/// Serializes a record to a flat JSON object (stable key order).
std::string repro_to_json(const ReproRecord& record);

/// Parses a record written by repro_to_json.  Reads that would replay
/// a different case throw resipe::Error naming the key: an unknown or
/// duplicate key, a value of the wrong JSON type, an integer that is
/// not whole or does not fit its field's type (a negative count, say),
/// an unknown mapping or transfer-model name, and bytes after the
/// closing brace.  Missing keys keep the field's default, so records
/// that predate a key (schema v1 has 64 of today's 81) still load.  The
/// eight `insp_*` keys of the retired introspection knobs are read
/// with their old types and dropped, so older records still load.
ReproRecord repro_from_json(const std::string& json);

/// A paste-ready C++ snippet reconstructing the case and running the
/// contract — for bug reports and commit messages.
std::string repro_snippet(const ReproRecord& record);

}  // namespace resipe::verify
