/**
 * @file
 * The run record every result carries (build, host, commit, seed)
 * and the per-run noise diagnostics: context switches, CPU
 * migrations where a software counter opens, peak RSS.
 */

#ifndef PERFBENCH_RECORD_HH
#define PERFBENCH_RECORD_HH

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace uatm::obs {
class PerfCounterGroup;
}

namespace perfbench {

/** True when this program was compiled with optimisation. */
bool optimisedBuild();

/** Build type, compiler, CPU model and online CPU count. */
std::vector<std::pair<std::string, std::string>> hostRecord();

/** A /proc/<pid>/status field in its own unit (kB for VmHWM), or
 *  -1 when unreadable.  pid 0 reads this process. */
long procStatusField(pid_t pid, const char *field);

/** Peak resident set of @p pid in MiB (0 = this process). */
double peakRssMiB(pid_t pid);

/**
 * Context switches and CPU migrations of this process (every
 * thread) between construction and stop(), and the share of the
 * host's CPU time a hypervisor stole meanwhile.  Migrations come
 * from a software perf counter and read -1 where it cannot open.
 */
class NoiseProbe
{
  public:
    NoiseProbe();
    ~NoiseProbe();

    NoiseProbe(const NoiseProbe &) = delete;
    NoiseProbe &operator=(const NoiseProbe &) = delete;

    /** Fields "ctx_switches_voluntary", "ctx_switches_involuntary",
     *  "cpu_migrations", "host_steal_share" as record entries. */
    std::vector<std::pair<std::string, std::string>> stop();

  private:
    std::unique_ptr<uatm::obs::PerfCounterGroup> counters_;
    long voluntary_ = 0;
    long involuntary_ = 0;
    std::uint64_t migrationsAtStart_ = 0;
    std::uint64_t stealAtStart_ = 0;
    std::uint64_t ticksAtStart_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_RECORD_HH
