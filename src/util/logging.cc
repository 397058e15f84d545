/**
 * @file
 * Implementation of the status-message helpers: level filtering,
 * optional timestamps, and serialized emission.
 */

#include "util/logging.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <set>

namespace uatm {

namespace {

/// Serializes log lines from concurrent benchmark threads.
std::mutex logMutex;

LogLevel
initialLogLevel()
{
    if (const char *env = std::getenv("UATM_LOG_LEVEL");
        env && *env) {
        return logLevelFromString(env);
    }
    return LogLevel::Inform;
}

/**
 * @p slot, set by @p fromEnv() on first use.  Until then it holds
 * its constant-initialised default, so a warning printed during the
 * read (a bad value warns, and every warning consults the level and
 * the stamp) finds a value instead of re-entering the read.  A line
 * logged by another thread at that moment may see the default.
 */
template <typename T, typename Read>
std::atomic<T> &
readOnce(std::atomic<T> &slot, std::atomic<bool> &read, Read fromEnv)
{
    if (!read.load(std::memory_order_acquire) &&
        !read.exchange(true, std::memory_order_acq_rel))
        slot.store(fromEnv(), std::memory_order_relaxed);
    return slot;
}

std::atomic<LogLevel> &
levelSlot()
{
    static std::atomic<LogLevel> level{LogLevel::Inform};
    static std::atomic<bool> read{false};
    return readOnce(level, read, initialLogLevel);
}

std::atomic<bool> &
timestampSlot()
{
    static std::atomic<bool> stamps{false};
    static std::atomic<bool> read{false};
    return readOnce(stamps, read,
                    [] { return envSwitch("UATM_LOG_TIMESTAMPS"); });
}

/** "2026-08-06T12:34:56Z " or "" when timestamps are off. */
std::string
timestampPrefix()
{
    if (!logTimestamps())
        return "";
    const std::time_t now = std::chrono::system_clock::to_time_t(
        std::chrono::system_clock::now());
    std::tm tm_utc{};
    gmtime_r(&now, &tm_utc);
    char buf[40];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ ",
                  &tm_utc);
    return buf;
}

} // namespace

LogLevel
logLevel()
{
    return levelSlot().load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    levelSlot().store(level, std::memory_order_relaxed);
}

LogLevel
logLevelFromString(std::string_view name, LogLevel fallback)
{
    if (name == "quiet")
        return LogLevel::Quiet;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "inform" || name == "info")
        return LogLevel::Inform;
    detail::emitMessage(
        "warn", "unknown log level '" + std::string(name) +
                    "', using '" +
                    logLevelName(fallback) + "'");
    return fallback;
}

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Quiet:
        return "quiet";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Inform:
        return "inform";
    }
    return "unknown";
}

bool
envSwitch(const char *name)
{
    const char *env = std::getenv(name);
    const std::string_view value = env ? env : "";
    if (value == "1")
        return true;
    if (value.empty() || value == "0")
        return false;
    static std::mutex warnedMutex;
    static std::set<std::string> warned;
    bool first = false;
    {
        std::lock_guard<std::mutex> guard(warnedMutex);
        first = warned.insert(std::string(name) + '=' + env).second;
    }
    if (first)
        warn(name, " must be 1 or 0 (got \"", value,
             "\"); leaving it off");
    return false;
}

bool
logTimestamps()
{
    return timestampSlot().load(std::memory_order_relaxed);
}

void
setLogTimestamps(bool enabled)
{
    timestampSlot().store(enabled, std::memory_order_relaxed);
}

namespace detail {

bool
levelEnabled(LogLevel level)
{
    return static_cast<std::uint8_t>(level) <=
           static_cast<std::uint8_t>(logLevel());
}

void
emitMessage(std::string_view level, const std::string &msg)
{
    const std::string stamp = timestampPrefix();
    std::lock_guard<std::mutex> guard(logMutex);
    std::fprintf(stderr, "%suatm: %.*s: %s\n", stamp.c_str(),
                 static_cast<int>(level.size()), level.data(),
                 msg.c_str());
    std::fflush(stderr);
}

} // namespace detail
} // namespace uatm
