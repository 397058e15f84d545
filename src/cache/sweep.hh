/**
 * @file
 * Run a workload through one cache configuration (runCacheSim), and
 * keep the process-wide tally of how geometry sweeps were priced.
 * The sweeps themselves — the measured hit-ratio curves that stand
 * in for the paper's trace-driven numbers (Short & Levy sizes in
 * Example 1, Smith MR(L) in Fig. 6) — have one driver,
 * exp::runGeometrySweep, which prices a point either from one
 * stack-sim pass (cache/stack_sim) or with runCacheSim.
 */

#ifndef UATM_CACHE_SWEEP_HH
#define UATM_CACHE_SWEEP_HH

#include <cstdint>
#include <string>

#include "cache/cache.hh"
#include "trace/source.hh"

namespace uatm {

/** Outcome of one simulation run. */
struct CacheRunResult
{
    CacheConfig config;
    CacheStats stats;

    double hitRatio() const { return stats.hitRatio(); }
    double missRatio() const { return stats.missRatio(); }
    double flushRatio() const
    {
        return stats.flushRatio(config.lineBytes);
    }
};

/**
 * Run @p refs references of @p source (reset first) through a fresh
 * cache of @p config.  Optionally skip a warmup prefix from the
 * statistics so compulsory-miss transients don't pollute steady-
 * state hit ratios.
 */
CacheRunResult runCacheSim(const CacheConfig &config,
                           TraceSource &source, std::uint64_t refs,
                           std::uint64_t warmup_refs = 0);

/** (size or line, hit ratio) sample from a sweep. */
struct SweepPoint
{
    std::uint64_t value;
    double hitRatio;
    double missRatio;
    double flushRatio;
};

/**
 * Process-wide tally of how geometry sweeps were dispatched, so a
 * workload silently losing the single-pass engine is observable.
 * All three counters are cumulative; see resetSweepDispatchStats.
 */
struct SweepDispatchCounters
{
    /** Sweeps served by the single-pass stack engine. */
    std::uint64_t fastPath = 0;

    /** Size-axis sweeps that qualified structurally but fell back
     *  to per-point simulation — each decline is also logged with
     *  its reason (never a silent fallback). */
    std::uint64_t declined = 0;

    /** Sweeps that are per-point by design: the line axis (the
     *  stack reduction fixes the line size) or an explicitly
     *  forced per-point engine. */
    std::uint64_t perPoint = 0;
};

/** Snapshot of the global dispatch counters. */
SweepDispatchCounters sweepDispatchCounters();

/** Zero the global dispatch counters (tests, benchmarks). */
void resetSweepDispatchStats();

/** Internal: bump one counter (exp::runGeometrySweep's dispatch
 *  decision).  @p reason, when non-empty, is logged for declined
 *  sweeps. */
void noteSweepDispatch(bool fast_path, bool structural,
                       const std::string &reason);

} // namespace uatm

#endif // UATM_CACHE_SWEEP_HH
