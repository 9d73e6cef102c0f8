#include "resipe/common/error.hpp"

namespace resipe::detail {

void throw_precondition(const std::string& msg) { throw Error(msg); }

void throw_invariant(const char* expr, const char* file, int line,
                     const std::string& msg) {
  std::ostringstream os;
  os << "invariant failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

}  // namespace resipe::detail
