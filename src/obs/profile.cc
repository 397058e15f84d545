/**
 * @file
 * Implementation of the scoped wall-clock profiler.
 */

#include "obs/profile.hh"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace uatm::obs {

namespace {

/** @p stats' histogram @p name; @p describe() names it on first use. */
template <typename Describe>
LatencyHistogram &
histogramNamed(StatRegistry &stats, const std::string &name,
               const char *unit, Describe &&describe)
{
    if (StatEntry *entry = stats.findMutable(name))
        return entry->histogram;
    return stats.addLatencyHistogram(name, LatencyHistogram(),
                                     describe(), unit);
}

} // namespace

ProfileRegistry::ProfileRegistry()
{
    if (const char *env = std::getenv("UATM_PROFILE");
        env && *env && std::string_view(env) != "0") {
        enabled_ = true;
    }
    // UATM_PERF arms per-scope counters and implies profiling:
    // counters without scopes would have nowhere to go.
    if (perfArmed()) {
        enabled_ = true;
        counters_ = true;
    }
}

ProfileRegistry &
ProfileRegistry::instance()
{
    static ProfileRegistry registry;
    // Arm the exit dump only after construction completes so the
    // handler is sequenced before the registry's destruction.
    static const bool armed = [&] {
        if (registry.enabled())
            std::atexit(dumpAtExit);
        return true;
    }();
    (void)armed;
    return registry;
}

void
ProfileRegistry::dumpAtExit()
{
    ProfileRegistry &profile = instance();
    std::lock_guard<std::mutex> guard(profile.mutex_);
    if (profile.stats_.size() == 0)
        return;
    std::fprintf(stderr, "uatm profile (per-scope histograms):\n%s",
                 profile.stats_.formatText().c_str());
}

void
ProfileRegistry::record(const char *name, std::uint64_t ns)
{
    std::lock_guard<std::mutex> guard(mutex_);
    histogramNamed(stats_, name, "ns", [name] {
        return std::string("wall-clock time of the '") + name +
               "' scope";
    }).add(static_cast<double>(ns));
}

void
ProfileRegistry::recordCounters(const char *name,
                                const PerfCounterValues &delta)
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (std::size_t i = 0; i < kPerfEventCount; ++i) {
        const auto event = static_cast<PerfEvent>(i);
        if (!delta.has(event))
            continue;
        const char *eventName = perfEventName(event);
        histogramNamed(stats_,
                       std::string(name) + "." + eventName, "count",
                       [name, eventName] {
                           return std::string(eventName) +
                                  " delta per '" + name +
                                  "' interval";
                       })
            .add(delta.value[i]);
    }
}

void
ProfileRegistry::registerStats(StatRegistry &registry,
                               const std::string &prefix) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (const StatEntry &entry : stats_.entries()) {
        registry.addLatencyHistogram(prefix + "." + entry.name,
                                     entry.histogram,
                                     entry.description, entry.unit);
    }
}

void
ProfileRegistry::clear()
{
    std::lock_guard<std::mutex> guard(mutex_);
    stats_.clear();
}

} // namespace uatm::obs
