/**
 * @file
 * Scoped wall-clock profiling.
 *
 * UATM_PROFILE_SCOPE("cpu.engine") drops an RAII timer into a
 * scope; the elapsed wall-clock nanoseconds feed a LatencyHistogram
 * named after the scope in the process-wide ProfileRegistry, the
 * same summary the runner and the daemon keep for their timed
 * spans.  Scope names follow perfbench's layers (cache.sim,
 * cache.stack_sim, cpu.engine, core.equivalence).  Profiling where
 * our *own* evaluation time goes is what makes fast-analytical-
 * model work (à la Gysi et al.) actionable.
 *
 * Disabled by default: the timer constructor is an inline check of
 * one cached bool, so scattering scopes over hot paths is free
 * until UATM_PROFILE is set in the environment (which also dumps
 * the histograms to stderr at exit) or setEnabled(true) is called.
 *
 * UATM_PERF additionally records each timed interval's counter
 * deltas from the calling thread's threadPerfCounters() group, one
 * histogram per event named <scope>.<event>.  On hosts where
 * perf_event_open is forbidden the scopes silently fall back to
 * wall-clock only.  UATM_PERF implies UATM_PROFILE.
 */

#ifndef UATM_OBS_PROFILE_HH
#define UATM_OBS_PROFILE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/perf_counters.hh"
#include "obs/registry.hh"

namespace uatm::obs {

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
    void record(const char *name, std::uint64_t ns);

    /** Fold one interval's counter deltas into <scope>.<event>. */
    void recordCounters(const char *name,
                        const PerfCounterValues &delta);

    /** Copy every histogram into @p registry as prefix.<name>. */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    /** Forget all recorded scopes. */
    void clear();

  private:
    ProfileRegistry();

    /** The UATM_PROFILE dump: a header, then formatText(). */
    static void dumpAtExit();

    mutable std::mutex mutex_;
    StatRegistry stats_;
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
        PerfCounterValues delta;
        if (counters_)
            delta = scaleDelta(begin_, threadPerfCounters().read());
        ProfileRegistry &profile = ProfileRegistry::instance();
        profile.record(
            name_, static_cast<std::uint64_t>(
                       std::chrono::duration_cast<
                           std::chrono::nanoseconds>(elapsed)
                           .count()));
        if (delta.available)
            profile.recordCounters(name_, delta);
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
