// Error handling primitives.
//
// The library reports contract violations by throwing `resipe::Error`
// (deriving from std::runtime_error) so that example programs and the
// test suite can observe precise failure messages.  Use:
//
//   RESIPE_REQUIRE(cond, "message with " << streamable << " parts");
//
// for precondition checks on public API boundaries: the message alone
// is thrown, because it reaches users as is (a CLI prints it after
// "error: "), so it names the refused value itself.  RESIPE_ASSERT is
// for internal invariants: its message also carries the checked
// expression and the source location, since a failure is a bug of the
// library.  Both throw and are never compiled out (simulation
// correctness beats the nanoseconds saved).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace resipe {

/// Exception type thrown on any contract violation inside the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
// The failure paths of RESIPE_REQUIRE and RESIPE_ASSERT, defined out of
// line in error.cpp: with a body the inliner can see, however small,
// GCC inlines more around every check (at -O3 the object code of
// src/serve/pool.cpp grew from 19 to 45 KB).
[[noreturn]] void throw_precondition(const std::string& msg);
[[noreturn]] void throw_invariant(const char* expr, const char* file,
                                  int line, const std::string& msg);
}  // namespace detail

}  // namespace resipe

#define RESIPE_REQUIRE(cond, msg)                                           \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::ostringstream resipe_require_os_;                                \
      resipe_require_os_ << msg; /* NOLINT */                               \
      ::resipe::detail::throw_precondition(resipe_require_os_.str());       \
    }                                                                       \
  } while (false)

#define RESIPE_ASSERT(cond, msg)                                            \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::ostringstream resipe_assert_os_;                                 \
      resipe_assert_os_ << msg; /* NOLINT */                                \
      ::resipe::detail::throw_invariant(#cond, __FILE__, __LINE__,          \
                                        resipe_assert_os_.str());           \
    }                                                                       \
  } while (false)
