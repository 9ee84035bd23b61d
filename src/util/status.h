// Status and Result<T>: exception-free error handling for library code.
//
// Library functions that can fail return a Status (or a Result<T> when they
// also produce a value). Exceptions are never thrown across the public API;
// this follows the RocksDB / Arrow idiom for database engines where error
// paths must be cheap, explicit, and visible at every call site.

#ifndef MERGEPURGE_UTIL_STATUS_H_
#define MERGEPURGE_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace mergepurge {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kIoError,
  kParseError,
  kInternal,
  kUnimplemented,
  // Some, but not all, of the requested work completed (e.g. a parallel
  // run in which some fragments failed). The message names the failed
  // units.
  kPartialFailure,
  // A fault injected by FaultInjector (tests only).
  kInjectedFault,
};

// Returns a short human-readable name, e.g. "InvalidArgument".
const char* StatusCodeName(StatusCode code);

// A cheap, copyable success-or-error value. The OK status carries no
// allocation; error statuses carry a code and a message.
//
// [[nodiscard]]: a dropped Status is a swallowed failure (the PR 7
// checkpoint-fsync bug was exactly that), so every function returning
// one by value must have its result checked, propagated, or discarded
// explicitly with `(void)` and a comment. -Werror=unused-result makes
// the warning an error repo-wide.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status PartialFailure(std::string msg) {
    return Status(StatusCode::kPartialFailure, std::move(msg));
  }
  static Status InjectedFault(std::string msg) {
    return Status(StatusCode::kInjectedFault, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

// A value or an error Status. Accessing the value of an errored Result is a
// programming error and asserts in debug builds. [[nodiscard]] for the
// same reason as Status: an unchecked Result hides its error.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Intentionally implicit: allows `return value;` and `return status;`
  // from functions declared to return Result<T>.
  Result(T value) : value_(std::move(value)) {}
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace mergepurge

// Propagates a non-OK Status from an expression, RocksDB-style.
#define MERGEPURGE_RETURN_NOT_OK(expr)                 \
  do {                                                 \
    ::mergepurge::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                         \
  } while (false)

#endif  // MERGEPURGE_UTIL_STATUS_H_
