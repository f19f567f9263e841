#ifndef PARADISE_COMMON_STATUS_H_
#define PARADISE_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace paradise {

/// Error codes used across the system. Kept deliberately coarse: callers
/// branch on success vs failure; the message carries the detail.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kResourceExhausted,
  kFailedPrecondition,
  kCorruption,    // on-page inconsistency (checksum, malformed bytes)
  kUnavailable,   // transient fault; safe to retry
  kInternal,
};

/// Lightweight status object (no exceptions anywhere in the library).
/// [[nodiscard]]: a dropped Status is a swallowed failure, so every call
/// site must consume it (or explicitly void-cast with a reason).
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status OutOfRange(std::string m) {
    return Status(StatusCode::kOutOfRange, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status Corruption(std::string m) {
    return Status(StatusCode::kCorruption, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error union, mirroring absl::StatusOr.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : rep_(std::move(status)) {}  // NOLINT(runtime/explicit)
  StatusOr(T value) : rep_(std::move(value)) {}         // NOLINT(runtime/explicit)

  bool ok() const { return std::holds_alternative<T>(rep_); }
  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(rep_);
  }
  T& value() & { return std::get<T>(rep_); }
  const T& value() const& { return std::get<T>(rep_); }
  T&& value() && { return std::get<T>(std::move(rep_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<Status, T> rep_;
};

#define PARADISE_RETURN_IF_ERROR(expr)            \
  do {                                            \
    ::paradise::Status _st = (expr);              \
    if (!_st.ok()) return _st;                    \
  } while (0)

#define PARADISE_ASSIGN_OR_RETURN(lhs, expr)      \
  auto PARADISE_CONCAT_(_sor, __LINE__) = (expr); \
  if (!PARADISE_CONCAT_(_sor, __LINE__).ok())     \
    return PARADISE_CONCAT_(_sor, __LINE__).status(); \
  lhs = std::move(PARADISE_CONCAT_(_sor, __LINE__)).value()

#define PARADISE_CONCAT_INNER_(a, b) a##b
#define PARADISE_CONCAT_(a, b) PARADISE_CONCAT_INNER_(a, b)

}  // namespace paradise

#endif  // PARADISE_COMMON_STATUS_H_
