#pragma once
// Structured error taxonomy for the whole stack (ISSUE 9).
//
// Every failure that crosses a subsystem boundary (parser -> session,
// session -> server, server -> client) carries a stable ErrorCode so
// callers can branch on machine-readable categories instead of matching
// message substrings. HidapError is the carrier exception; legacy
// untyped throws (bare std::runtime_error) are classified as Internal
// by classify_exception so nothing falls through the taxonomy.
//
// The enum is append-only: codes are wire format (hidap_serve events,
// JobOutcome::error_code, CLI exit codes), so existing values never
// change meaning or spelling.

#include <stdexcept>
#include <string>

namespace hidap {

/// Stable failure categories, surfaced as snake_case strings on the
/// wire ({"event":"error","code":"parse_error",...}).
enum class ErrorCode : int {
  Ok = 0,
  ParseError = 1,         ///< malformed netlist / DEF / JSON input
  IoError = 2,            ///< file unreadable/unwritable; possibly transient
  InvalidRequest = 3,     ///< structurally valid input the server refuses
  ResourceExhausted = 4,  ///< admission control shed / size limit exceeded
  Cancelled = 5,          ///< cooperative cancel honored (not a failure)
  DeadlineExpired = 6,    ///< deadline honored (not a failure)
  Internal = 7,           ///< anything untyped or unexpected
};

/// snake_case wire spelling ("parse_error"); stable forever.
const char* to_string(ErrorCode code);

/// Inverse of to_string; unknown spellings map to Internal.
ErrorCode error_code_from_string(const std::string& name);

/// The typed exception carrying an ErrorCode through the stack.
class HidapError : public std::runtime_error {
 public:
  HidapError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Maps any caught exception to its taxonomy code: HidapError (and
/// subclasses) report their own code, everything else is Internal.
ErrorCode classify_exception(const std::exception& e);

/// Only IoError is presumed transient (an I/O hiccup can heal on
/// retry); every other category is deterministic for identical input.
inline bool is_transient(ErrorCode code) { return code == ErrorCode::IoError; }

}  // namespace hidap
