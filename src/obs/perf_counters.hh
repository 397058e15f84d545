/**
 * @file
 * Hardware PMU counters via perf_event_open.
 *
 * A PerfCounterGroup opens a fixed set of hardware and software
 * counters — cycles, instructions, cache references/misses, LLC
 * misses, branch misses, context switches, cpu migrations — for
 * the calling thread and reads them as grouped snapshots
 * (PERF_FORMAT_GROUP), so the values within one kernel group are
 * taken atomically.  scaleDelta() turns two snapshots into
 * multiplexing-corrected deltas using the kernel's
 * time_enabled/time_running accounting: when the PMU rotates more
 * groups than it has hardware counters, each delta is scaled by
 * enabled/running, and a group that never got scheduled reports
 * its events as absent rather than as zero.
 *
 * Availability is always best-effort and never an error: a host
 * without a PMU (VMs, containers), a perf_event_paranoid setting
 * that forbids the open, a seccomp filter that blocks the
 * syscall, or a non-Linux build all degrade to available() ==
 * false (with the reason kept for diagnostics), and every event
 * that fails to open individually — common for the LLC and
 * branch events under virtualisation — is simply dropped from the
 * set while the rest keep counting.  Consumers (profile scopes,
 * runner telemetry lanes, the bench harness) therefore treat
 * counters as an extra observability channel that may or may not
 * be present, never as a required input.
 *
 * Counting is user-space scoped (exclude_kernel/exclude_hv), the
 * least-privileged mode perf_event_paranoid permits without
 * CAP_PERFMON.
 */

#ifndef UATM_OBS_PERF_COUNTERS_HH
#define UATM_OBS_PERF_COUNTERS_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.hh"

namespace uatm::obs {

class JsonWriter;
class JsonValue;
class JsonPath;

/** The counters one group measures, in fixed order. */
enum class PerfEvent : std::uint8_t
{
    Cycles,
    Instructions,
    CacheReferences,
    CacheMisses,
    LlcMisses,
    BranchMisses,
    ContextSwitches,
    CpuMigrations,
};

constexpr std::size_t kPerfEventCount = 8;

/** Canonical snake_case name ("cycles", "llc_misses", ...). */
const char *perfEventName(PerfEvent event);

/** Parse a canonical name; false when @p name is unknown. */
bool perfEventFromName(std::string_view name, PerfEvent &out);

/**
 * One raw snapshot of a counter group: per-event running totals
 * plus the kernel's time_enabled/time_running accounting for the
 * kernel group each event belongs to.  Raw snapshots only make
 * sense as begin/end pairs fed to scaleDelta().
 */
struct PerfReading
{
    /** False when no event of the group is open. */
    bool available = false;

    /** Bit (1 << event) set when that event was read. */
    std::uint32_t mask = 0;

    std::array<std::uint64_t, kPerfEventCount> raw{};
    std::array<std::uint64_t, kPerfEventCount> enabledNs{};
    std::array<std::uint64_t, kPerfEventCount> runningNs{};

    bool
    has(PerfEvent event) const
    {
        return mask & (1u << static_cast<unsigned>(event));
    }
};

/**
 * Multiplexing-corrected counter deltas over one measured
 * interval, plus the derived rates the diagnosis layers print.
 * The serialized form is the "counters" object of the RUNNER_*,
 * BENCH_* and run_report JSON schemas.
 */
struct PerfCounterValues
{
    /** False when the interval had no readable counters. */
    bool available = false;

    /** Bit (1 << event) set when that event has a usable delta. */
    std::uint32_t mask = 0;

    /** Scaled delta per event; meaningful only when has(). */
    std::array<double, kPerfEventCount> value{};

    /** Largest per-event time_enabled delta over the interval. */
    double timeEnabledNs = 0.0;
    /** time_running delta matching timeEnabledNs's event. */
    double timeRunningNs = 0.0;

    bool
    has(PerfEvent event) const
    {
        return mask & (1u << static_cast<unsigned>(event));
    }

    /** Scaled delta, or 0.0 when the event is absent. */
    double get(PerfEvent event) const;

    /**
     * enabled/running over the interval: 1.0 = the group was on
     * hardware the whole time, larger = the kernel multiplexed
     * it and the values are extrapolated.  0 when unavailable.
     */
    double multiplexScale() const;

    /** instructions / cycles; 0 when either event is absent. */
    double ipc() const;

    /** cache misses / cache references; 0 when absent. */
    double cacheMissRate() const;

    /** cache misses per 1000 instructions; 0 when absent. */
    double missesPerKiloInstruction() const;

    /**
     * Emit as a JSON object value (the caller supplies the key):
     * {"available": bool, "multiplex_scale": f,
     *  "time_enabled_ns": n, "time_running_ns": n,
     *  "values": {"cycles": ..., ...}}   (present events only).
     */
    void writeJson(JsonWriter &w) const;

    /** Read an object produced by writeJson(); unknown keys and
     *  value names are ignored, and a missing or false "available"
     *  yields the unavailable value.  A value of the wrong kind is
     *  a ParseError naming its path. */
    static Expected<PerfCounterValues> fromJson(const JsonValue &doc,
                                                const JsonPath &path);
};

/** end - begin with per-event enabled/running scaling.  An event
 *  whose group gained enabled time but no running time (never
 *  scheduled) is dropped from the result's mask. */
PerfCounterValues scaleDelta(const PerfReading &begin,
                             const PerfReading &end);

struct PerfCounterOptions
{
    /**
     * Count threads spawned while the counters exist too, at the
     * cost of ungrouped (per-event, non-atomic) reads — inherit
     * and PERF_FORMAT_GROUP do not combine.  For whole-benchmark
     * measurement; per-thread consumers leave this off.
     */
    bool inheritChildren = false;

    /** Behave as if perf_event_open failed (deterministic
     *  fallback-path testing). */
    bool forceUnavailable = false;
};

/**
 * An open set of perf counters for the calling thread (and, with
 * inheritChildren, its future children).  The hardware events are
 * split across two kernel groups sized to fit common PMUs, the
 * software events form a third; each group schedules atomically
 * and carries its own multiplex accounting.  Construction never
 * fails — a host that forbids perf yields available() == false
 * and every operation becomes a cheap no-op.
 */
class PerfCounterGroup
{
  public:
    explicit PerfCounterGroup(PerfCounterOptions options = {});
    ~PerfCounterGroup();

    PerfCounterGroup(const PerfCounterGroup &) = delete;
    PerfCounterGroup &operator=(const PerfCounterGroup &) = delete;

    /** True when at least one event opened. */
    bool available() const { return available_; }

    /** Why nothing opened ("" while available()). */
    const std::string &unavailableReason() const
    {
        return reason_;
    }

    /** Bit (1 << event) per successfully opened event. */
    std::uint32_t mask() const { return mask_; }

    /** Zero every counter and start (or resume) counting. */
    void start();

    /** Pause counting; read() still works. */
    void stop();

    /** Snapshot the current totals (since the last start()). */
    PerfReading read() const;

  private:
    struct OpenEvent
    {
        int fd = -1;
        std::uint64_t id = 0;
        std::uint8_t event = 0;
        std::uint8_t group = 0;
    };

    std::array<OpenEvent, kPerfEventCount> events_{};
    std::array<int, 3> leaders_ = {-1, -1, -1};
    std::size_t eventCount_ = 0;
    std::uint32_t mask_ = 0;
    bool available_ = false;
    bool inherit_ = false;
    std::string reason_;
};

/** The UATM_PERF switch (envSwitch()), read at each call: arms
 *  counter collection on profile scopes (and the profile registry
 *  itself) and on runner workers. */
bool perfArmed();

/**
 * The calling thread's shared counter group (default options),
 * opened and started on first use.  Scope-style consumers take a
 * read() at entry and exit and feed the pair to scaleDelta();
 * the group stays enabled for the thread's lifetime.
 */
PerfCounterGroup &threadPerfCounters();

} // namespace uatm::obs

#endif // UATM_OBS_PERF_COUNTERS_HH
