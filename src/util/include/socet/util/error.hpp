// Error handling helpers.
//
// The library throws `socet::util::Error` for violated preconditions and
// malformed inputs (e.g. a connection whose bit widths disagree).  Internal
// invariants use SOCET_ASSERT, which throws in all build types so that the
// test suite can exercise failure paths deterministically.
#pragma once

#include <stdexcept>
#include <string>

namespace socet::util {

/// Exception type for all user-facing library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] inline void raise(const std::string& message) {
  throw Error(message);
}

/// Throw unless `cond` holds.  Used for public API precondition checks.
inline void require(bool cond, const std::string& message) {
  if (!cond) raise(message);
}

/// The same for a literal message, which becomes a string only on failure.
inline void require(bool cond, const char* message) {
  if (!cond) raise(message);
}

}  // namespace socet::util

// Internal invariant check.  Kept enabled in release builds: the algorithms
// here are small enough that the cost is negligible and silent corruption of
// a test plan would be far worse.
#define SOCET_ASSERT(cond, msg)                                              \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::socet::util::raise(std::string("internal invariant failed: ") + msg \
                           + " (" #cond ")");                                \
    }                                                                        \
  } while (false)
