/**
 * @file
 * Shared scaffolding for the figure/table regeneration binaries:
 * section banners, CSV export next to the binary output, the
 * paper-vs-measured row helper used by EXPERIMENTS.md, and the
 * run-manifest sink — every CSV gets a sibling
 * <name>.manifest.json recording the configuration that produced
 * it (see docs/OBSERVABILITY.md).
 */

#ifndef UATM_BENCH_COMMON_HH
#define UATM_BENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "cpu/timing_engine.hh"
#include "memory/timing.hh"
#include "memory/write_buffer.hh"
#include "obs/manifest.hh"
#include "util/ascii_chart.hh"
#include "util/status.hh"
#include "util/table.hh"

namespace uatm::bench {

/**
 * Command-line options shared by the bench binaries, so CI and
 * developers can run benchmark subsets without rebuilding:
 *
 *   --filter <substr>  only run benchmarks whose name contains it
 *   --list             print the (filtered) names and exit
 *   --reps <n>         timed repetitions for the micro harness
 *
 * Read by obs::Flags, so "--name=value" works too and --help
 * prints them and exits; parseArgs() fatal()s on a bad flag.
 */
struct BenchArgs
{
    std::string filter;
    bool listOnly = false;
    std::uint32_t reps = 0;  ///< 0 = harness default
};

BenchArgs parseArgs(int argc, char **argv);

/**
 * Print a banner naming the experiment and the paper artefact;
 * also stamps the run manifest with the experiment id.
 */
void banner(const std::string &experiment_id,
            const std::string &description);

/** Print a sub-section heading. */
void section(const std::string &title);

/** Print a table to stdout. */
void emitTable(const TextTable &table);

/** Print a chart to stdout. */
void emitChart(const AsciiChart &chart);

/**
 * Write a CSV snapshot under obs::benchOutDir() ($UATM_BENCH_OUT,
 * default "bench_out/"), plus a sibling <name>.manifest.json run
 * manifest; prints the paths written.  fatal() when the directory
 * or files are unwritable.
 */
void exportCsv(const std::string &name, const TextTable &table);

/** One paper-vs-measured comparison line. */
void compareLine(const std::string &what, const std::string &paper,
                 const std::string &measured, bool matches);

/**
 * The process-wide run manifest written next to every CSV.
 * banner() and the record*() helpers populate it; benches can add
 * experiment-specific keys directly.
 */
obs::Manifest &manifest();

/** Record the simulated machine configuration in the manifest. */
void recordMachine(const CacheConfig &cache,
                   const MemoryConfig &memory,
                   const WriteBufferConfig &wbuf,
                   const CpuConfig &cpu);

/** Record the trace profile and seed driving the run. */
void recordWorkload(const std::string &profile,
                    std::uint64_t seed, std::uint64_t refs);

/**
 * Record a final timing-stat dump (full stat registry, including
 * any wall-clock profile scopes) in the manifest.  @p mu_m
 * additionally exposes the derived phi stat.
 */
void recordStats(const TimingStats &stats, Cycles mu_m = 0);

} // namespace uatm::bench

#endif // UATM_BENCH_COMMON_HH
