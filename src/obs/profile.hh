/**
 * @file
 * Scoped wall-clock profiling.
 *
 * UATM_PROFILE_SCOPE("engine.run") drops an RAII timer into a
 * scope; elapsed wall-clock seconds feed a named RunningStats in
 * the process-wide ProfileRegistry.  Profiling where our *own*
 * evaluation time goes is what makes fast-analytical-model work
 * (à la Gysi et al.) actionable.
 *
 * Disabled by default: the timer constructor is an inline check of
 * one cached bool, so scattering scopes over hot paths is free
 * until UATM_PROFILE is set in the environment (which also dumps
 * the profile to stderr at exit) or setEnabled(true) is called.
 *
 * UATM_PERF additionally arms hardware counter deltas per scope:
 * each timed interval also records cycles/instructions/cache-miss
 * (etc.) deltas from the calling thread's PerfCounterGroup.  On
 * hosts where perf_event_open is forbidden the scopes silently
 * fall back to wall-clock only.  UATM_PERF implies UATM_PROFILE.
 */

#ifndef UATM_OBS_PROFILE_HH
#define UATM_OBS_PROFILE_HH

#include <chrono>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/perf_counters.hh"
#include "util/stats.hh"

namespace uatm::obs {

class StatRegistry;

class ProfileRegistry
{
  public:
    /** The process-wide registry (UATM_PROFILE arms it). */
    static ProfileRegistry &instance();

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Per-scope hardware counter collection (UATM_PERF). */
    bool countersEnabled() const { return counters_; }

    /** Fold one timed interval into the named scope. */
    void record(const char *name, double seconds);

    /** Fold one interval's counter deltas into the scope. */
    void recordCounters(const char *name,
                        const PerfCounterValues &delta);

    /** (scope name, timing summary) in first-seen order. */
    std::vector<std::pair<std::string, RunningStats>>
    snapshot() const;

    /** Per-scope per-event counter summaries. */
    struct ScopeCounters
    {
        /** Bit (1 << event) per event with samples. */
        std::uint32_t mask = 0;
        std::array<RunningStats, kPerfEventCount> stats{};
    };

    /** (scope name, counters) for scopes that recorded any. */
    std::vector<std::pair<std::string, ScopeCounters>>
    counterSnapshot() const;

    /** Register every scope as prefix.<name> distributions. */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    /** Aligned human-readable dump (seconds). */
    std::string format() const;

    /** Forget all recorded scopes. */
    void clear();

  private:
    ProfileRegistry();

    mutable std::mutex mutex_;
    std::vector<std::pair<std::string, RunningStats>> scopes_;
    std::vector<std::pair<std::string, ScopeCounters>>
        counterScopes_;
    bool enabled_ = false;
    bool counters_ = false;
};

/**
 * RAII timer; use through UATM_PROFILE_SCOPE rather than
 * directly.  Captures nothing when profiling is disabled.
 */
class ScopedTimer
{
  public:
    explicit
    ScopedTimer(const char *name)
        : name_(name),
          active_(ProfileRegistry::instance().enabled())
    {
        if (!active_)
            return;
        if (ProfileRegistry::instance().countersEnabled()) {
            PerfCounterGroup &group = threadPerfCounters();
            if (group.available()) {
                counters_ = true;
                begin_ = group.read();
            }
        }
        start_ = std::chrono::steady_clock::now();
    }

    ~ScopedTimer()
    {
        if (!active_)
            return;
        const auto elapsed =
            std::chrono::steady_clock::now() - start_;
        if (counters_) {
            const PerfCounterValues delta = scaleDelta(
                begin_, threadPerfCounters().read());
            if (delta.available) {
                ProfileRegistry::instance().recordCounters(
                    name_, delta);
            }
        }
        ProfileRegistry::instance().record(
            name_,
            std::chrono::duration<double>(elapsed).count());
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    const char *name_;
    bool active_;
    bool counters_ = false;
    std::chrono::steady_clock::time_point start_;
    PerfReading begin_;
};

#define UATM_OBS_CONCAT2(a, b) a##b
#define UATM_OBS_CONCAT(a, b) UATM_OBS_CONCAT2(a, b)

/** Time the enclosing scope under @p name (a string literal). */
#define UATM_PROFILE_SCOPE(name)                                  \
    ::uatm::obs::ScopedTimer UATM_OBS_CONCAT(uatmProfileScope_,   \
                                             __LINE__)(name)

} // namespace uatm::obs

#endif // UATM_OBS_PROFILE_HH
