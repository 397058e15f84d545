/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a library bug), fatal() is for unusable user input
 * (bad configuration), warn()/inform() report conditions without
 * stopping execution.
 *
 * Runtime filtering: UATM_LOG_LEVEL=quiet|warn|inform (or
 * setLogLevel()) picks the highest severity that still prints;
 * the default is inform.  panic()/fatal() always print.
 * UATM_LOG_TIMESTAMPS=1, a switch read by envSwitch() (or
 * setLogTimestamps(true)), prefixes every line with an ISO-8601
 * UTC timestamp for correlating long bench runs with external
 * monitoring.  Both variables are read at the first line logged.
 */

#ifndef UATM_UTIL_LOGGING_HH
#define UATM_UTIL_LOGGING_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>

namespace uatm {

/**
 * Verbosity threshold, ordered so that a message prints when its
 * level is <= the configured threshold.  Quiet silences
 * everything except panic/fatal.
 */
enum class LogLevel : std::uint8_t
{
    Quiet = 0,
    Warn = 1,
    Inform = 2,
};

/** Current threshold (initialised from UATM_LOG_LEVEL). */
LogLevel logLevel();

/** Override the threshold at runtime. */
void setLogLevel(LogLevel level);

/**
 * Parse "quiet"/"warn"/"inform" (case-sensitive; "info" is an
 * alias of "inform"); returns @p fallback with a warning for
 * anything else.
 */
LogLevel logLevelFromString(std::string_view name,
                            LogLevel fallback = LogLevel::Inform);

const char *logLevelName(LogLevel level);

/**
 * The environment switch @p name (UATM_PROFILE, UATM_PERF,
 * UATM_LOG_TIMESTAMPS), read at each call: "1" turns it on, and
 * unset, empty or "0" leave it off.  Any other value leaves it off
 * too, after a warning naming the variable and the value, once per
 * process for each such value.
 */
bool envSwitch(const char *name);

/** Whether log lines carry a UTC timestamp prefix. */
bool logTimestamps();
void setLogTimestamps(bool enabled);

namespace detail {

/** Compose the final log line and write it to stderr. */
void emitMessage(std::string_view level, const std::string &msg);

/** True when messages of @p level should print. */
bool levelEnabled(LogLevel level);

/** Fold a pack of streamable arguments into one string. */
template <typename... Args>
std::string
foldMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/**
 * Report an internal invariant violation and abort.
 *
 * Call when something happened that should never happen regardless of
 * what the user does, i.e. a bug in this library.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::emitMessage("panic", detail::foldMessage(
        std::forward<Args>(args)...));
    std::abort();
}

/**
 * Report an unrecoverable user error (bad configuration, invalid
 * arguments) and exit with a failure status.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::emitMessage("fatal", detail::foldMessage(
        std::forward<Args>(args)...));
    std::exit(EXIT_FAILURE);
}

/** Report a suspicious but survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (!detail::levelEnabled(LogLevel::Warn))
        return;
    detail::emitMessage("warn", detail::foldMessage(
        std::forward<Args>(args)...));
}

/** Report normal operating status. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (!detail::levelEnabled(LogLevel::Inform))
        return;
    detail::emitMessage("info", detail::foldMessage(
        std::forward<Args>(args)...));
}

/**
 * Check a library invariant; panic with a description when violated.
 *
 * Unlike assert(), stays active in release builds: the analytical
 * model is cheap and correctness of its preconditions is the product.
 */
#define UATM_ASSERT(cond, ...)                                          \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::uatm::panic("assertion '", #cond, "' failed at ",         \
                          __FILE__, ":", __LINE__, ": ", __VA_ARGS__);  \
        }                                                               \
    } while (0)

} // namespace uatm

#endif // UATM_UTIL_LOGGING_HH
