#ifndef HISTEST_COMMON_STATUS_H_
#define HISTEST_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "common/check.h"

namespace histest {

/// Error codes used across the library. The set mirrors the subset of the
/// canonical (absl/gRPC) codes this library actually needs.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kFailedPrecondition = 2,
  kOutOfRange = 3,
  kNotFound = 4,
  kInternal = 5,
  kUnimplemented = 6,
};

/// Returns a human-readable name for `code` ("OK", "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// A lightweight status value used instead of exceptions for all recoverable
/// errors crossing public API boundaries (RocksDB idiom). `Status::Ok()` is
/// cheap (no allocation); error statuses carry a message.
///
/// The class is `[[nodiscard]]`: any function returning a Status by value
/// warns (and, under -Werror, fails to compile) if the caller drops the
/// result. Consume every Status — check it, propagate it with
/// HISTEST_RETURN_IF_ERROR, or discard it explicitly with a `(void)` cast
/// and a comment saying why. src/ builds with -Werror (HISTEST_WERROR, on
/// by default) and tests/, bench/ and examples/ with -Werror=unused-result,
/// so a dropped result is a build error (the status_nodiscard_build ctest
/// compiles a seeded drop).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Factory helpers, one per error code.
  [[nodiscard]] static Status Ok() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  [[nodiscard]] static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  [[nodiscard]] static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  [[nodiscard]] static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  [[nodiscard]] static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  [[nodiscard]] static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }

  /// True iff this status represents success.
  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }

  StatusCode code() const { return code_; }

  /// The error message; empty for OK statuses.
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status (a minimal StatusOr).
///
/// Accessing `value()` on an error Result is a checked fatal error, so call
/// sites either test `ok()` first or deliberately assert success. Like
/// Status, the class is `[[nodiscard]]`: dropping a returned Result drops an
/// error silently, so the compiler rejects it.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a successful result holding `value`.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::Ok()), value_(std::move(value)) {}

  /// Constructs a failed result from a non-OK status.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    HISTEST_CHECK(!status_.ok());
  }

  [[nodiscard]] bool ok() const { return value_.has_value(); }

  [[nodiscard]] const Status& status() const { return status_; }

  /// Returns the contained value. Fatal if `!ok()`.
  const T& value() const& {
    HISTEST_CHECK(value_.has_value());
    return *value_;
  }
  T& value() & {
    HISTEST_CHECK(value_.has_value());
    return *value_;
  }
  T&& value() && {
    HISTEST_CHECK(value_.has_value());
    return *std::move(value_);
  }

  /// Returns the contained value, or `fallback` on error.
  T value_or(T fallback) const {
    return value_.has_value() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK status to the caller (for functions returning Status
/// or Result<T>).
#define HISTEST_RETURN_IF_ERROR(expr)          \
  do {                                         \
    ::histest::Status _histest_status = (expr); \
    if (!_histest_status.ok()) return _histest_status; \
  } while (false)

}  // namespace histest

#endif  // HISTEST_COMMON_STATUS_H_
