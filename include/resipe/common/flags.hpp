// Strict command-line flags, one reader for every binary.
//
// A binary lists its flags once; each one takes a value or is a switch.
// `Flags` reads argv against that list and throws FlagError on an
// unknown token, a value flag with nothing after it and a repeated
// flag; a typed read throws it on a value that does not parse whole as
// its type.  Each main catches FlagError, prints `error: <message>` and
// its usage, and exits 2, so a typo never runs with a default.
//
//   constexpr FlagSpec kFlags[] = {{"--cases", "N"}, {"--no-shrink"}};
//   const Flags flags({argv + 1, argv + argc}, kFlags);
//   const auto cases = flags.number<std::size_t>("--cases", 100);
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "resipe/common/error.hpp"

namespace resipe {

/// A malformed command line; the message names the flag and the token.
class FlagError : public Error {
 public:
  using Error::Error;
};

/// One declared flag.  `value` names its value in usage text ("N",
/// "FILE"); a switch leaves it empty.  Both views must outlive every
/// Flags read against them (binaries declare string literals).
struct FlagSpec {
  std::string_view name;
  std::string_view value = {};
};

/// Parses the whole of `token`, the value of `flag`, as a T.  Throws
/// FlagError on trailing bytes, a sign an unsigned T cannot hold, a
/// value outside T's range or a non-finite floating-point value.
template <typename T>
T parse_flag(std::string_view flag, std::string_view token) {
  T out{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(out);
  if (!ok) {
    throw FlagError("bad value '" + std::string(token) + "' for '" +
                    std::string(flag) + "'");
  }
  return out;
}

/// "[--cases N] [--no-shrink]": `spec` as a usage line.
inline std::string flag_synopsis(std::span<const FlagSpec> spec) {
  std::string out;
  for (const FlagSpec& f : spec) {
    if (!out.empty()) out += ' ';
    (out += '[') += f.name;
    if (!f.value.empty()) (out += ' ') += f.value;
    out += ']';
  }
  return out;
}

/// The flags one command line gave, read against a binary's list.
class Flags {
 public:
  /// Reads `args` (argv without the program name).  `scope`, such as
  /// "command 'mvm'", is added to the message for an unknown token.
  Flags(std::span<char* const> args, std::span<const FlagSpec> spec,
        std::string_view scope = {})
      : spec_(spec.begin(), spec.end()) {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string token = args[i];
      const FlagSpec* flag = declared(token);
      if (flag == nullptr) {
        throw FlagError("unknown option '" + token + "'" +
                        (scope.empty() ? "" : " for " + std::string(scope)));
      }
      const bool switch_flag = flag->value.empty();
      if (!switch_flag && i + 1 == args.size()) {
        throw FlagError("missing value for '" + token + "'");
      }
      std::string value = switch_flag ? "" : args[++i];
      if (const std::string* first = lookup(token)) {
        throw FlagError("repeated option '" + token + "'" +
                        (switch_flag ? ""
                                     : " ('" + *first + "', then '" +
                                           value + "')"));
      }
      given_.emplace_back(token, std::move(value));
    }
  }

  /// True when `name` was given.
  bool has(std::string_view name) const { return lookup(name) != nullptr; }

  /// The value given for `name`, else `fallback`.
  std::string text(std::string_view name, std::string fallback = {}) const {
    const std::string* value = lookup(name);
    return value != nullptr ? *value : fallback;
  }

  /// The value given for `name` parsed whole as a T (parse_flag), else
  /// `fallback`.
  template <typename T>
  T number(std::string_view name, T fallback) const {
    const std::string* value = lookup(name);
    return value != nullptr ? parse_flag<T>(name, *value) : fallback;
  }

 private:
  const FlagSpec* declared(std::string_view name) const {
    for (const FlagSpec& f : spec_) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }

  // Reading a flag the binary never declared is a bug in the binary,
  // not in its command line.
  const std::string* lookup(std::string_view name) const {
    if (declared(name) == nullptr) {
      throw std::logic_error("flag '" + std::string(name) +
                             "' is read but not declared");
    }
    for (const auto& [flag, value] : given_) {
      if (flag == name) return &value;
    }
    return nullptr;
  }

  std::vector<FlagSpec> spec_;
  std::vector<std::pair<std::string, std::string>> given_;
};

}  // namespace resipe
