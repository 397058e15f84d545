/**
 * @file
 * Recoverable-error substrate: Status and Expected<T>.
 *
 * The library's error contract (see DESIGN.md):
 *
 *  - Library code reports bad *input* (malformed traces, impossible
 *    geometries, unknown names) by returning Status / Expected<T>.
 *    It never calls fatal(): a single degenerate point in a 10k-point
 *    grid must degrade to an error row, not kill the process.
 *  - Constructors and deep call sites that cannot return a Status
 *    throw StatusError (okOrThrow); the exp::Runner catches it per
 *    point, and CLI mains catch it at the boundary.
 *  - fatal() survives only at CLI boundaries (examples/, bench/,
 *    option parsing) where exiting *is* the correct response.
 *  - panic()/UATM_ASSERT remain for library invariants — bugs, not
 *    inputs.
 */

#ifndef UATM_UTIL_STATUS_HH
#define UATM_UTIL_STATUS_HH

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/logging.hh"

namespace uatm {

/** Broad class of a recoverable error, for typed error cells. */
enum class ErrorCode : std::uint8_t
{
    Ok = 0,
    InvalidArgument, ///< a value outside the model's domain
    ParseError,      ///< malformed textual/binary input
    IoError,         ///< file open/read/write failure
    NotFound,        ///< unknown name, missing axis or table entry
    OutOfRange,      ///< numeric overflow or out-of-range value
    KernelError,     ///< a scenario kernel threw
    Unavailable,     ///< a bounded resource is full; retry later
};

/** "ok", "invalid_argument", "parse_error", ... */
const char *errorCodeName(ErrorCode code);

/**
 * The result of an operation that can fail recoverably: an OK tag
 * or an (ErrorCode, message) pair.  Cheap to move, comparable to
 * OK in a bool context via ok().
 */
class [[nodiscard]] Status
{
  public:
    /** OK. */
    Status() = default;

    template <typename... Args>
    static Status
    error(ErrorCode code, Args &&...args)
    {
        Status status;
        status.code_ = code;
        status.message_ =
            detail::foldMessage(std::forward<Args>(args)...);
        UATM_ASSERT(code != ErrorCode::Ok,
                    "an error status needs a non-OK code: ",
                    status.message_);
        return status;
    }

    template <typename... Args>
    static Status
    invalidArgument(Args &&...args)
    {
        return error(ErrorCode::InvalidArgument,
                     std::forward<Args>(args)...);
    }

    template <typename... Args>
    static Status
    parseError(Args &&...args)
    {
        return error(ErrorCode::ParseError,
                     std::forward<Args>(args)...);
    }

    template <typename... Args>
    static Status
    ioError(Args &&...args)
    {
        return error(ErrorCode::IoError,
                     std::forward<Args>(args)...);
    }

    template <typename... Args>
    static Status
    notFound(Args &&...args)
    {
        return error(ErrorCode::NotFound,
                     std::forward<Args>(args)...);
    }

    template <typename... Args>
    static Status
    outOfRange(Args &&...args)
    {
        return error(ErrorCode::OutOfRange,
                     std::forward<Args>(args)...);
    }

    template <typename... Args>
    static Status
    unavailable(Args &&...args)
    {
        return error(ErrorCode::Unavailable,
                     std::forward<Args>(args)...);
    }

    bool ok() const { return code_ == ErrorCode::Ok; }
    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "ok", or "<code name>: <message>". */
    std::string toString() const;

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/**
 * A Status escaping as an exception, for constructors and call
 * chains that cannot return one.  The exp::Runner converts it back
 * into a per-point error row; example/bench mains convert it into
 * fatal() at the CLI boundary.
 */
class StatusError : public std::runtime_error
{
  public:
    explicit StatusError(Status status)
        : std::runtime_error(status.toString()),
          status_(std::move(status))
    {
    }

    const Status &status() const { return status_; }

  private:
    Status status_;
};

/**
 * A value or the Status explaining why there is none.
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : value_(std::move(value)) {}

    Expected(Status status) : status_(std::move(status))
    {
        UATM_ASSERT(!status_.ok(),
                    "Expected built from an OK status has no value");
    }

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    /** OK when a value is present. */
    const Status &status() const { return status_; }

    /** The value; panic() (a caller bug) when there is none. */
    T &value() &
    {
        requireValue();
        return *value_;
    }
    const T &value() const &
    {
        requireValue();
        return *value_;
    }
    T &&value() &&
    {
        requireValue();
        return *std::move(value_);
    }

    T
    valueOr(T fallback) const &
    {
        return ok() ? *value_ : std::move(fallback);
    }

  private:
    void
    requireValue() const
    {
        if (!ok())
            panic("Expected::value() called on an error: ",
                  status_.toString());
    }

    std::optional<T> value_;
    Status status_;
};

/** Throw StatusError unless @p status is OK. */
inline void
okOrThrow(const Status &status)
{
    if (!status.ok())
        throw StatusError(status);
}

/** Unwrap @p expected, throwing StatusError on error. */
template <typename T>
T
okOrThrow(Expected<T> expected)
{
    if (!expected.ok())
        throw StatusError(expected.status());
    return std::move(expected).value();
}

/** CLI-boundary sink: fatal() unless @p status is OK. */
inline void
okOrFatal(const Status &status)
{
    if (!status.ok())
        fatal(status.message());
}

/** CLI-boundary unwrap: the value, or fatal() with the message. */
template <typename T>
T
valueOrFatal(Expected<T> expected)
{
    if (!expected.ok())
        fatal(expected.status().message());
    return std::move(expected).value();
}

/**
 * CLI-boundary main: run @p body, converting an escaping
 * StatusError into a clean fatal() exit, so a recoverable library
 * error never surfaces as an uncaught exception (std::terminate,
 * exit 134).
 */
template <typename Fn>
int
guardedMain(Fn &&body)
{
    try {
        return std::forward<Fn>(body)();
    } catch (const StatusError &e) {
        fatal(e.status().message());
    }
}

} // namespace uatm

#endif // UATM_UTIL_STATUS_HH
