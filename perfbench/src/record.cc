#include "record.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/perf_counters.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

bool
optimisedBuild()
{
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

std::vector<std::pair<std::string, std::string>>
hostRecord()
{
    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(' ',
                                                         colon + 1));
            break;
        }
    }
    return {
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"compiler", "g++ " __VERSION__},
        {"cpu_model", cpu},
        {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
    };
}

long
procStatusField(pid_t pid, const char *field)
{
    const std::string path =
        pid ? "/proc/" + std::to_string(pid) + "/status"
            : "/proc/self/status";
    std::ifstream status(path);
    const std::size_t len = std::strlen(field);
    for (std::string line; std::getline(status, line);) {
        if (line.compare(0, len, field) == 0 && line.size() > len &&
            line[len] == ':') {
            std::istringstream value(line.substr(len + 1));
            long out = -1;
            value >> out;
            return out;
        }
    }
    return -1;
}

double
peakRssMiB(pid_t pid)
{
    const long kib = procStatusField(pid, "VmHWM");
    return kib < 0 ? -1.0 : double(kib) / 1024.0;
}

namespace {

void
ctxSwitches(long &voluntary, long &involuntary)
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    voluntary = usage.ru_nvcsw;
    involuntary = usage.ru_nivcsw;
}

/** Steal and total ticks of the first line of /proc/stat. */
void
cpuTicks(std::uint64_t &steal, std::uint64_t &total)
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    steal = total = 0;
    std::uint64_t value = 0;
    for (int field = 0; field < 8 && stat >> value; ++field) {
        total += value;
        if (field == 7)
            steal = value;
    }
}

std::uint64_t
migrations(const uatm::obs::PerfCounterGroup &counters)
{
    const uatm::obs::PerfReading reading = counters.read();
    const auto event = uatm::obs::PerfEvent::CpuMigrations;
    return reading.has(event) ? reading.raw[std::size_t(event)] : 0;
}

} // namespace

NoiseProbe::NoiseProbe()
{
    uatm::obs::PerfCounterOptions options;
    options.inheritChildren = true;
    counters_ =
        std::make_unique<uatm::obs::PerfCounterGroup>(options);
    counters_->start();
    migrationsAtStart_ = migrations(*counters_);
    ctxSwitches(voluntary_, involuntary_);
    cpuTicks(stealAtStart_, ticksAtStart_);
}

NoiseProbe::~NoiseProbe() = default;

std::vector<std::pair<std::string, std::string>>
NoiseProbe::stop()
{
    long voluntary = 0, involuntary = 0;
    ctxSwitches(voluntary, involuntary);
    std::uint64_t steal = 0, ticks = 0;
    cpuTicks(steal, ticks);
    const double steal_share =
        ticks > ticksAtStart_
            ? double(steal - stealAtStart_) / double(ticks - ticksAtStart_)
            : 0.0;
    const bool has_migrations =
        counters_->available() &&
        counters_->read().has(uatm::obs::PerfEvent::CpuMigrations);
    const std::string migrated =
        has_migrations
            ? std::to_string(migrations(*counters_) -
                             migrationsAtStart_)
            : std::string("-1");
    counters_->stop();
    return {
        {"ctx_switches_voluntary", std::to_string(voluntary -
                                                  voluntary_)},
        {"ctx_switches_involuntary",
         std::to_string(involuntary - involuntary_)},
        {"cpu_migrations", migrated},
        {"host_steal_share", std::to_string(steal_share)},
    };
}

} // namespace perfbench
