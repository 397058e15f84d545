/**
 * @file
 * Per-event stall-interval tracer.
 *
 * The timing engine records every interesting interval — fill
 * transfers, in-flight access stalls, miss serialization, flushes,
 * write and buffer-full stalls, port contention, prefetch issues —
 * into a fixed-capacity ring buffer of POD events.  The buffer can
 * be exported as Chrome trace_event JSON, so any run is loadable in
 * Perfetto (https://ui.perfetto.dev) or chrome://tracing; one
 * simulated CPU cycle is displayed as one microsecond.  The runner's
 * per-worker spans (recordWall()) are wall-clock microseconds, so
 * they go in a Chrome process of their own, pid 1, beside the
 * engine's cycle-clock events on pid 0.
 *
 * Cost model: when disabled, record() is an inline early-out on a
 * single bool — cheap enough to leave call sites unconditional in
 * the engine's hot loop.  When enabled, recording is a handful of
 * stores into preallocated storage (wraparound overwrites the
 * oldest events; the drop count is reported in the export).
 *
 * The process-wide tracer in globalTracer() arms itself from the
 * environment: set UATM_TRACE=<path> and every binary that drives
 * a TimingEngine writes a Chrome trace to <path> at exit.
 * UATM_TRACE_EVENTS overrides the default ring capacity.
 */

#ifndef UATM_OBS_TRACE_EVENT_HH
#define UATM_OBS_TRACE_EVENT_HH

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace uatm::obs {

class StatRegistry;

/** Bumped whenever the exported trace layout changes shape. */
constexpr int kTraceSchemaVersion = 2;

/**
 * One traced interval or counter sample.  Name/category must be
 * string literals (the tracer stores the pointers, not copies).
 */
struct TraceEvent
{
    const char *name = nullptr;
    const char *category = nullptr;
    std::uint64_t start = 0;     ///< begin, in CPU cycles (or µs)
    std::uint64_t duration = 0;  ///< length; 0 = instant event
    std::uint64_t arg = 0;       ///< line address, or the counter value
    /** Counter sample ("ph":"C"): arg is the series value at
     *  start, rendered as a counter track in the viewer. */
    bool counter = false;
    /** Wall-clock span (recordWall()): start and duration are
     *  microseconds, exported under pid 1. */
    bool wall = false;
};

class EventTracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1u << 20;

    explicit EventTracer(std::size_t capacity = kDefaultCapacity);

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Resize the ring; discards any buffered events. */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const { return ring_.size(); }

    /** Record one interval; inline no-op while disabled. */
    void
    record(const char *name, const char *category,
           std::uint64_t start, std::uint64_t duration,
           std::uint64_t arg = 0)
    {
        if (enabled_)
            push({name, category, start, duration, arg, false, false});
    }

    /**
     * Record one counter sample: the cumulative @p value of the
     * series @p name at time @p ts.  Exported as a "ph":"C" event,
     * which Perfetto/chrome://tracing render as a counter track
     * alongside the interval tracks.  Inline no-op while disabled.
     */
    void
    recordCounter(const char *name, std::uint64_t ts,
                  std::uint64_t value,
                  const char *category = "counter")
    {
        if (enabled_)
            push({name, category, ts, 0, value, true, false});
    }

    /**
     * Record one wall-clock interval on @p track, in microseconds:
     * a runner worker's point span, idle gap or start marker.
     * Exported in its own Chrome process (pid 1), since its clock
     * is not the engine's.  Inline no-op while disabled.
     */
    void
    recordWall(const char *name, const char *track,
               std::uint64_t startUs, std::uint64_t durationUs,
               std::uint64_t arg = 0)
    {
        if (enabled_)
            push({name, track, startUs, durationUs, arg, false, true});
    }

    /** Events currently buffered (<= capacity). */
    std::size_t size() const;

    /** Events ever recorded, including overwritten ones. */
    std::uint64_t recorded() const { return recorded_; }

    /** Events lost to ring wraparound. */
    std::uint64_t dropped() const;

    /**
     * Copy @p name into tracer-owned storage and return a pointer
     * that stays valid for the tracer's lifetime, so runtime-built
     * names (per-worker tracks, point labels) can feed record()'s
     * literal-pointer contract.  Repeated calls with the same text
     * return the same pointer.
     */
    const char *intern(const std::string &name);

    /**
     * Register the tracer's health counters — events recorded,
     * events dropped to ring wraparound, and the ring capacity —
     * so a truncated trace is visible in every stat dump, not just
     * the trace file's own metadata.
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix = "tracer") const;

    /** Buffered events, oldest first. */
    std::vector<TraceEvent> events() const;

    /** Drop buffered events and reset the drop counters. */
    void clear();

    /** The full buffer as a Chrome trace_event JSON document. */
    std::string toChromeJson() const;

    /**
     * Write toChromeJson() to @p path; returns false (with a
     * warning) when the file cannot be written.
     */
    bool writeChromeJson(const std::string &path) const;

  private:
    void
    push(const TraceEvent &event)
    {
        ring_[head_] = event;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        ++recorded_;
    }

    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;        ///< next write position
    std::uint64_t recorded_ = 0;
    bool enabled_ = false;
    /** intern() storage; node-based so pointers stay stable. */
    std::unordered_set<std::string> interned_;
};

/**
 * The process-wide tracer, armed by UATM_TRACE=<path>: enabled on
 * first use and flushed to the path via atexit.
 */
EventTracer &globalTracer();

/**
 * Write the global tracer's buffer to the UATM_TRACE path now
 * (also happens automatically at exit); no-op without UATM_TRACE.
 */
void flushGlobalTrace();

} // namespace uatm::obs

#endif // UATM_OBS_TRACE_EVENT_HH
