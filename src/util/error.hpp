// Precondition checking helpers used across the library.
//
// Public API functions validate their inputs with `require` and throw
// std::invalid_argument on violation, per the project error-handling policy
// (exceptions for programming/usage errors, no error codes).
//
// Both helpers are thin wrappers over the contract machinery in
// util/check.hpp, so failures carry the caller's file and line. Prefer the
// SWARMAVAIL_REQUIRE / SWARMAVAIL_INVARIANT / SWARMAVAIL_ASSERT macros in
// new code; these function forms remain for call sites where a macro is
// awkward (e.g. inside other macros, or when the condition is a variable).
//
// The message is a `const char*` so that a passing check costs one compare
// and one branch: it becomes a std::string only on the failure path. A
// message built at run time cannot be passed here; use the SWARMAVAIL_*
// macros, which evaluate their message only when the check fails.
#pragma once

#include <source_location>

#include "util/check.hpp"

namespace swarmavail {

/// Throws std::invalid_argument with `message` if `condition` is false.
///
/// Use at public API boundaries to validate caller-supplied parameters:
///
///     require(rate > 0.0, "arrival rate must be positive");
inline void require(bool condition, const char* message,
                    std::source_location where = std::source_location::current()) {
    if (!condition) {
        detail::require_failed("", where.file_name(), static_cast<int>(where.line()),
                               message);
    }
}

/// Throws swarmavail::CheckFailure (a std::logic_error): used for internal
/// invariants that indicate a bug in this library rather than bad caller
/// input.
inline void ensure(bool invariant, const char* message,
                   std::source_location where = std::source_location::current()) {
    if (!invariant) {
        detail::check_failed("ensure", "", where.file_name(),
                             static_cast<int>(where.line()), message);
    }
}

}  // namespace swarmavail
