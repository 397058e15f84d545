/**
 * @file
 * perf_event_open counter groups: opening, grouped reads, and
 * multiplexing-corrected delta scaling.
 */

#include "obs/perf_counters.hh"

#include <cstdlib>
#include <cstring>

#include "obs/json.hh"
#include "util/logging.hh"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace uatm::obs {

namespace {

constexpr const char *kEventNames[kPerfEventCount] = {
    "cycles",
    "instructions",
    "cache_references",
    "cache_misses",
    "llc_misses",
    "branch_misses",
    "context_switches",
    "cpu_migrations",
};

/**
 * Which kernel group each event joins.  The four headline
 * hardware events share group 0 (they fit the 4 programmable
 * counters of common x86/ARM PMUs, so the group schedules as a
 * unit without starving), the two optional hardware events form
 * group 1, and the software events — which always schedule —
 * form group 2.
 */
constexpr std::uint8_t kEventGroup[kPerfEventCount] = {
    0, 0, 0, 0, 1, 1, 2, 2};

} // namespace

const char *
perfEventName(PerfEvent event)
{
    const auto i = static_cast<std::size_t>(event);
    UATM_ASSERT(i < kPerfEventCount, "bad PerfEvent ", i);
    return kEventNames[i];
}

bool
perfEventFromName(std::string_view name, PerfEvent &out)
{
    for (std::size_t i = 0; i < kPerfEventCount; ++i) {
        if (name == kEventNames[i]) {
            out = static_cast<PerfEvent>(i);
            return true;
        }
    }
    return false;
}

double
PerfCounterValues::get(PerfEvent event) const
{
    return has(event)
               ? value[static_cast<std::size_t>(event)]
               : 0.0;
}

double
PerfCounterValues::multiplexScale() const
{
    if (!available || timeRunningNs <= 0.0)
        return 0.0;
    return timeEnabledNs / timeRunningNs;
}

double
PerfCounterValues::ipc() const
{
    if (!has(PerfEvent::Instructions) ||
        !has(PerfEvent::Cycles) || get(PerfEvent::Cycles) <= 0.0)
        return 0.0;
    return get(PerfEvent::Instructions) / get(PerfEvent::Cycles);
}

double
PerfCounterValues::cacheMissRate() const
{
    if (!has(PerfEvent::CacheMisses) ||
        !has(PerfEvent::CacheReferences) ||
        get(PerfEvent::CacheReferences) <= 0.0)
        return 0.0;
    return get(PerfEvent::CacheMisses) /
           get(PerfEvent::CacheReferences);
}

double
PerfCounterValues::missesPerKiloInstruction() const
{
    if (!has(PerfEvent::CacheMisses) ||
        !has(PerfEvent::Instructions) ||
        get(PerfEvent::Instructions) <= 0.0)
        return 0.0;
    return get(PerfEvent::CacheMisses) * 1000.0 /
           get(PerfEvent::Instructions);
}

void
PerfCounterValues::writeJson(JsonWriter &w) const
{
    w.beginObject().keyValue("available", available);
    if (available) {
        w.keyValue("multiplex_scale", multiplexScale())
            .keyValue("time_enabled_ns", timeEnabledNs)
            .keyValue("time_running_ns", timeRunningNs);
        w.key("values").beginObject();
        for (std::size_t i = 0; i < kPerfEventCount; ++i) {
            const auto event = static_cast<PerfEvent>(i);
            if (has(event))
                w.keyValue(kEventNames[i], value[i]);
        }
        w.endObject();
    }
    w.endObject();
}

namespace {

const JsonField<PerfCounterValues> kCounterFields[] = {
    field<&PerfCounterValues::available>("available"),
    field<&PerfCounterValues::timeEnabledNs>("time_enabled_ns"),
    field<&PerfCounterValues::timeRunningNs>("time_running_ns"),
    {"values",
     [](auto &values, auto &path, PerfCounterValues &out) {
         return readMembers(values, path, [&out](const auto &name,
                                                 const auto &value,
                                                 const auto &at) {
             PerfEvent event;
             if (!perfEventFromName(name, event))
                 return Status();
             const auto i = static_cast<std::size_t>(event);
             out.mask |= 1u << i;
             return readJson(value, at, out.value[i]);
         });
     }},
};

} // namespace

Expected<PerfCounterValues>
PerfCounterValues::fromJson(const JsonValue &doc, const JsonPath &path)
{
    PerfCounterValues out;
    if (Status s = readObject(doc, path, out, kCounterFields); !s.ok())
        return s;
    if (!out.available)
        return PerfCounterValues{};
    return out;
}

PerfCounterValues
scaleDelta(const PerfReading &begin, const PerfReading &end)
{
    PerfCounterValues out;
    if (!begin.available || !end.available)
        return out;
    for (std::size_t i = 0; i < kPerfEventCount; ++i) {
        const auto event = static_cast<PerfEvent>(i);
        if (!begin.has(event) || !end.has(event))
            continue;
        const std::uint64_t dr =
            end.raw[i] >= begin.raw[i]
                ? end.raw[i] - begin.raw[i]
                : 0;
        const std::uint64_t de =
            end.enabledNs[i] >= begin.enabledNs[i]
                ? end.enabledNs[i] - begin.enabledNs[i]
                : 0;
        const std::uint64_t drun =
            end.runningNs[i] >= begin.runningNs[i]
                ? end.runningNs[i] - begin.runningNs[i]
                : 0;
        if (drun == 0 && de > 0) {
            // Enabled but never on hardware: the PMU multiplexed
            // this group out for the whole interval, so there is
            // no count to extrapolate from.
            continue;
        }
        const double scale =
            drun > 0 ? static_cast<double>(de) /
                           static_cast<double>(drun)
                     : 1.0;
        out.value[i] = static_cast<double>(dr) * scale;
        out.mask |= 1u << i;
        if (static_cast<double>(de) > out.timeEnabledNs) {
            out.timeEnabledNs = static_cast<double>(de);
            out.timeRunningNs = static_cast<double>(drun);
        }
    }
    out.available = out.mask != 0;
    return out;
}

bool
perfArmed()
{
    const char *env = std::getenv("UATM_PERF");
    return env && *env && std::string_view(env) != "0";
}

#if defined(__linux__)

namespace {

/** (type, config) for each PerfEvent, matching enum order. */
struct EventConfig
{
    std::uint32_t type;
    std::uint64_t config;
};

constexpr EventConfig kEventConfig[kPerfEventCount] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_HW_CACHE,
     PERF_COUNT_HW_CACHE_LL |
         (PERF_COUNT_HW_CACHE_OP_READ << 8) |
         (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CPU_MIGRATIONS},
};

int
openEvent(std::size_t event, int group_fd, bool inherit)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = kEventConfig[event].type;
    attr.config = kEventConfig[event].config;
    // User-space scope: the least privilege perf_event_paranoid
    // accepts without CAP_PERFMON.
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    // Leaders start disabled so start() enables the whole group
    // from a clean zero; members follow their leader.
    attr.disabled = group_fd == -1 ? 1 : 0;
    attr.inherit = inherit ? 1 : 0;
    if (inherit) {
        // inherit and PERF_FORMAT_GROUP do not combine: fall back
        // to per-event reads, each with its own scaling times.
        attr.read_format = PERF_FORMAT_TOTAL_TIME_ENABLED |
                           PERF_FORMAT_TOTAL_TIME_RUNNING;
    } else {
        attr.read_format = PERF_FORMAT_GROUP |
                           PERF_FORMAT_TOTAL_TIME_ENABLED |
                           PERF_FORMAT_TOTAL_TIME_RUNNING |
                           PERF_FORMAT_ID;
    }
    return static_cast<int>(
        syscall(SYS_perf_event_open, &attr, 0, -1, group_fd, 0));
}

} // namespace

PerfCounterGroup::PerfCounterGroup(PerfCounterOptions options)
    : inherit_(options.inheritChildren)
{
    if (options.forceUnavailable) {
        reason_ = "disabled (forceUnavailable)";
        return;
    }
    int firstErrno = 0;
    for (std::size_t i = 0; i < kPerfEventCount; ++i) {
        const std::uint8_t group =
            inherit_ ? static_cast<std::uint8_t>(i)
                     : kEventGroup[i];
        const int leader =
            inherit_ ? -1
                     : leaders_[group];
        const int fd = openEvent(i, leader, inherit_);
        if (fd < 0) {
            if (firstErrno == 0)
                firstErrno = errno;
            continue;
        }
        OpenEvent &open = events_[eventCount_++];
        open.fd = fd;
        open.event = static_cast<std::uint8_t>(i);
        open.group = group;
        if (!inherit_) {
            if (leaders_[group] == -1)
                leaders_[group] = fd;
            std::uint64_t id = 0;
            if (ioctl(fd, PERF_EVENT_IOC_ID, &id) == 0)
                open.id = id;
        }
        mask_ |= 1u << i;
    }
    available_ = eventCount_ != 0;
    if (!available_) {
        reason_ = std::string("perf_event_open failed: ") +
                  std::strerror(firstErrno ? firstErrno : ENOSYS);
    }
}

PerfCounterGroup::~PerfCounterGroup()
{
    for (std::size_t i = 0; i < eventCount_; ++i)
        close(events_[i].fd);
}

void
PerfCounterGroup::start()
{
    if (!available_)
        return;
    if (inherit_) {
        for (std::size_t i = 0; i < eventCount_; ++i) {
            ioctl(events_[i].fd, PERF_EVENT_IOC_RESET, 0);
            ioctl(events_[i].fd, PERF_EVENT_IOC_ENABLE, 0);
        }
        return;
    }
    for (int leader : leaders_) {
        if (leader == -1)
            continue;
        ioctl(leader, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
        ioctl(leader, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
    }
}

void
PerfCounterGroup::stop()
{
    if (!available_)
        return;
    if (inherit_) {
        for (std::size_t i = 0; i < eventCount_; ++i)
            ioctl(events_[i].fd, PERF_EVENT_IOC_DISABLE, 0);
        return;
    }
    for (int leader : leaders_) {
        if (leader != -1)
            ioctl(leader, PERF_EVENT_IOC_DISABLE,
                  PERF_IOC_FLAG_GROUP);
    }
}

PerfReading
PerfCounterGroup::read() const
{
    PerfReading out;
    if (!available_)
        return out;

    if (inherit_) {
        // Per-event layout: {value, time_enabled, time_running}.
        for (std::size_t i = 0; i < eventCount_; ++i) {
            std::uint64_t buf[3] = {0, 0, 0};
            if (::read(events_[i].fd, buf, sizeof(buf)) !=
                static_cast<ssize_t>(sizeof(buf)))
                continue;
            const std::size_t e = events_[i].event;
            out.raw[e] = buf[0];
            out.enabledNs[e] = buf[1];
            out.runningNs[e] = buf[2];
            out.mask |= 1u << e;
        }
        out.available = out.mask != 0;
        return out;
    }

    // Grouped layout: {nr, time_enabled, time_running,
    // {value, id}...} — one atomic snapshot per kernel group.
    for (int leader : leaders_) {
        if (leader == -1)
            continue;
        std::uint64_t buf[3 + 2 * kPerfEventCount] = {};
        const ssize_t got = ::read(leader, buf, sizeof(buf));
        if (got < static_cast<ssize_t>(3 * sizeof(std::uint64_t)))
            continue;
        const std::uint64_t nr = buf[0];
        const std::uint64_t enabled = buf[1];
        const std::uint64_t running = buf[2];
        for (std::uint64_t v = 0; v < nr; ++v) {
            const std::uint64_t value = buf[3 + 2 * v];
            const std::uint64_t id = buf[3 + 2 * v + 1];
            for (std::size_t i = 0; i < eventCount_; ++i) {
                if (events_[i].id != id ||
                    leaders_[events_[i].group] != leader)
                    continue;
                const std::size_t e = events_[i].event;
                out.raw[e] = value;
                out.enabledNs[e] = enabled;
                out.runningNs[e] = running;
                out.mask |= 1u << e;
                break;
            }
        }
    }
    out.available = out.mask != 0;
    return out;
}

#else // !defined(__linux__)

PerfCounterGroup::PerfCounterGroup(PerfCounterOptions options)
    : inherit_(options.inheritChildren)
{
    reason_ = options.forceUnavailable
                  ? "disabled (forceUnavailable)"
                  : "perf_event_open requires Linux";
}

PerfCounterGroup::~PerfCounterGroup() = default;

void
PerfCounterGroup::start()
{
}

void
PerfCounterGroup::stop()
{
}

PerfReading
PerfCounterGroup::read() const
{
    return PerfReading{};
}

#endif // defined(__linux__)

PerfCounterGroup &
threadPerfCounters()
{
    thread_local PerfCounterGroup group;
    thread_local const bool started = [] {
        group.start();
        return true;
    }();
    (void)started;
    return group;
}

} // namespace uatm::obs
