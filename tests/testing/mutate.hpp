// Fixed-seed byte mutations for the parser fuzz tests (repro records,
// weight files): one to three edits, each a bit flip, a deletion, an
// insertion of a byte drawn from `inserts`, or a truncation, at a
// uniformly drawn position.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "resipe/common/rng.hpp"

namespace resipe::testing {

inline std::string mutate_bytes(std::string bytes, Rng& rng,
                                std::string_view inserts) {
  const auto edits = rng.uniform_int(1, 3);
  for (std::int64_t e = 0; e < edits && !bytes.empty(); ++e) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    const char byte = inserts[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(inserts.size()) - 1))];
    switch (rng.uniform_int(0, 3)) {
      case 0:
        bytes[at] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
        break;
      case 1:
        bytes.erase(at, 1);
        break;
      case 2:
        bytes.insert(at, 1, byte);
        break;
      default:
        bytes.resize(at);
    }
  }
  return bytes;
}

}  // namespace resipe::testing
