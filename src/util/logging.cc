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

bool
initialTimestamps()
{
    const char *env = std::getenv("UATM_LOG_TIMESTAMPS");
    if (!env || !*env)
        return false;
    const std::string_view v(env);
    return v != "0" && v != "false" && v != "off" && v != "no";
}

std::atomic<LogLevel> &
levelSlot()
{
    static std::atomic<LogLevel> level{initialLogLevel()};
    return level;
}

std::atomic<bool> &
timestampSlot()
{
    static std::atomic<bool> stamps{initialTimestamps()};
    return stamps;
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
