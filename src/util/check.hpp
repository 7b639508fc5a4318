// Contract-checking macros for kstable.
//
// Follows the C++ Core Guidelines (I.6/I.8 style Expects/Ensures): precondition
// violations are programming errors and throw `kstable::ContractViolation`
// with file/line context so tests can assert on them (failure injection).
// Hot inner loops use KSTABLE_ASSERT, compiled out in NDEBUG builds.
#pragma once

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>

namespace kstable {

/// Thrown when a KSTABLE_REQUIRE / KSTABLE_ENSURE contract is violated.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
  /// `what` with the source location at [at, at + length) of it.
  ContractViolation(const std::string& what, std::size_t at,
                    std::size_t length)
      : std::logic_error(what), location_at_(at), location_length_(length) {}

  /// what() without the " at <file>:<line>" a contract check adds: the
  /// text a loader may hand to whoever sent the malformed input.
  [[nodiscard]] std::string reason() const {
    return std::string(what()).erase(location_at_, location_length_);
  }

 private:
  std::size_t location_at_ = 0;
  std::size_t location_length_ = 0;
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ')';
  const auto at = static_cast<std::size_t>(os.tellp());
  os << " at " << file << ':' << line;
  const auto length = static_cast<std::size_t>(os.tellp()) - at;
  if (!msg.empty()) os << " — " << msg;
  throw ContractViolation(os.str(), at, length);
}
}  // namespace detail

}  // namespace kstable

/// Precondition check; always on. `msg` is streamed, e.g.
///   KSTABLE_REQUIRE(n > 0, "n=" << n);
#define KSTABLE_REQUIRE(cond, msg)                                              \
  do {                                                                          \
    if (!(cond)) {                                                              \
      std::ostringstream kstable_req_os_;                                       \
      kstable_req_os_ << msg; /* NOLINT */                                      \
      ::kstable::detail::contract_fail("precondition", #cond, __FILE__,         \
                                       __LINE__, kstable_req_os_.str());        \
    }                                                                           \
  } while (false)

/// Postcondition / invariant check; always on.
#define KSTABLE_ENSURE(cond, msg)                                               \
  do {                                                                          \
    if (!(cond)) {                                                              \
      std::ostringstream kstable_ens_os_;                                       \
      kstable_ens_os_ << msg; /* NOLINT */                                      \
      ::kstable::detail::contract_fail("postcondition", #cond, __FILE__,        \
                                       __LINE__, kstable_ens_os_.str());        \
    }                                                                           \
  } while (false)

/// Cheap internal sanity check for hot paths; compiled out under NDEBUG.
#ifdef NDEBUG
#define KSTABLE_ASSERT(cond) ((void)0)
#else
#define KSTABLE_ASSERT(cond)                                                    \
  do {                                                                          \
    if (!(cond)) {                                                              \
      ::kstable::detail::contract_fail("assertion", #cond, __FILE__, __LINE__,  \
                                       std::string{});                          \
    }                                                                           \
  } while (false)
#endif
