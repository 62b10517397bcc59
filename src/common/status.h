// Lightweight Status / Result error-handling primitives.
//
// The library does not use exceptions on its hot paths: protocol state
// machines, storage operations and polyvalue algebra all report failures
// through Status / Result<T>. Exceptions are reserved for programming
// errors (precondition violations) surfaced via CHECK-style macros.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace polyvalue {

// Canonical error space, loosely modelled on absl::StatusCode but trimmed
// to what a distributed transaction engine needs.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,   // caller passed something malformed
  kNotFound = 2,          // item / site / transaction does not exist
  kAlreadyExists = 3,     // duplicate registration
  kFailedPrecondition = 4,// operation illegal in the current state
  kAborted = 5,           // transaction aborted (conflict or vote-no)
  kUnavailable = 6,       // site down / link partitioned; retryable
  kTimedOut = 7,          // protocol timer expired
  kUncertain = 8,         // result depends on an unresolved transaction
  kDataLoss = 9,          // WAL corruption detected on recovery
  kInternal = 10,         // invariant violation (bug)
  kResourceExhausted = 11,// load shed: admission control refused entry
  kDeadlineExceeded = 12, // the caller's deadline budget ran out
};

// Human-readable name of a StatusCode ("OK", "ABORTED", ...).
const char* StatusCodeName(StatusCode code);

// A Status is either OK (cheap, no allocation) or an error code plus a
// context message. [[nodiscard]]: silently dropping a Status hides
// failures (a WAL append that didn't happen, a send that was refused) —
// callers must check it or cast to void with a reason.
class [[nodiscard]] Status {
 public:
  constexpr Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "ABORTED: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

// Convenience constructors, mirroring absl.
Status OkStatus();
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status FailedPreconditionError(std::string message);
Status AbortedError(std::string message);
Status UnavailableError(std::string message);
Status TimedOutError(std::string message);
Status UncertainError(std::string message);
Status DataLossError(std::string message);
Status InternalError(std::string message);
Status ResourceExhaustedError(std::string message);
Status DeadlineExceededError(std::string message);

// What Result::status() returns when it holds a value. Constant-
// initialised, so reading it takes no initialisation guard: GCC 12
// assumes a guard call may change a Result's variant index, and then
// warns (-Wmaybe-uninitialized) in the destructor of every Result<T>
// whose status() it inlined.
inline constinit const Status kOkStatus;

// Result<T> holds either a value or an error Status. Accessing the value
// of an error Result aborts the process (it is a programming error).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : payload_(std::move(value)) {}      // NOLINT: implicit by design
  Result(Status status) : payload_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(payload_); }

  const Status& status() const {
    if (ok()) {
      return kOkStatus;
    }
    return std::get<Status>(payload_);
  }

  T& value() & { return std::get<T>(payload_); }
  const T& value() const& { return std::get<T>(payload_); }
  T&& value() && { return std::get<T>(std::move(payload_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  // Returns the contained value or `fallback` when this holds an error.
  T value_or(T fallback) const {
    if (ok()) {
      return std::get<T>(payload_);
    }
    return fallback;
  }

 private:
  std::variant<T, Status> payload_;
};

// Propagate-on-error helpers (statement-expression free, portable).
#define POLYV_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::polyvalue::Status _polyv_status = (expr); \
    if (!_polyv_status.ok()) {                 \
      return _polyv_status;                    \
    }                                          \
  } while (0)

#define POLYV_CONCAT_INNER(a, b) a##b
#define POLYV_CONCAT(a, b) POLYV_CONCAT_INNER(a, b)

#define POLYV_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                \
  if (!tmp.ok()) {                                   \
    return tmp.status();                             \
  }                                                  \
  lhs = std::move(tmp).value()

#define POLYV_ASSIGN_OR_RETURN(lhs, rexpr) \
  POLYV_ASSIGN_OR_RETURN_IMPL(POLYV_CONCAT(_polyv_result_, __LINE__), lhs, rexpr)

}  // namespace polyvalue

#endif  // SRC_COMMON_STATUS_H_
