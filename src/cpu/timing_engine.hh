/**
 * @file
 * Trace-driven timing engine.
 *
 * Executes a reference stream against a functional cache and the
 * memory scheduler, applying one of the paper's stalling features
 * (Table 2), optional read-bypassing write buffers (Sec. 4.3) and
 * optionally pipelined line fills (Sec. 4.4).  Produces total
 * cycles, a stall breakdown and the empirical stalling factor phi,
 * which is how the paper's Figure 1 was obtained.
 *
 * Timing conventions (matching Eq. 2 exactly for FS):
 *  - every non-memory instruction takes 1 cycle;
 *  - a load/store hit takes 1 cycle, plus any stall imposed by an
 *    in-flight line fill;
 *  - a load/store miss takes exactly its stall time (min 1 cycle),
 *    i.e. phi*mu_m replaces the instruction's base cycle, matching
 *    the (E - Lambda_m) + (R/L) phi mu_m split of Eq. 2;
 *  - with no write buffer, a dirty victim is flushed synchronously
 *    *before* the fill (there is nowhere to park it), costing
 *    (L/D) mu_m — the paper's (alpha R / D) mu_m term;
 *  - with a write buffer, the flush is posted when the fill
 *    completes (the paper's observation (1) in Sec. 5.3) and
 *    retires whenever the memory port is idle; reads bypass queued
 *    writes but never preempt a started transfer.
 */

#ifndef UATM_CPU_TIMING_ENGINE_HH
#define UATM_CPU_TIMING_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include <unordered_set>

#include "cache/cache.hh"
#include "cpu/stall_feature.hh"
#include "memory/timing.hh"
#include "memory/write_buffer.hh"
#include "trace/source.hh"

namespace uatm::obs {
class EventTracer;
class StatRegistry;
} // namespace uatm::obs

namespace uatm {

/**
 * Hardware prefetch policies (the latency-hiding techniques of
 * paper Sec. 3.3 / the Chen & Baer comparison of Sec. 2):
 *  - None:   no prefetching;
 *  - OnMiss: a demand miss for line X also fetches X + L;
 *  - Tagged: additionally, the first demand hit on a prefetched
 *    line fetches its successor (Smith's tagged prefetch).
 * Prefetch transfers occupy the memory port but never stall the
 * CPU directly; a demand access that arrives before the
 * prefetched data waits only for the needed chunk.
 */
enum class PrefetchPolicy : std::uint8_t
{
    None,
    OnMiss,
    Tagged,
};

const char *prefetchPolicyName(PrefetchPolicy policy);

/** Processor-side configuration. */
struct CpuConfig
{
    StallFeature feature = StallFeature::FS;

    /** Outstanding-miss registers for the NB feature; other
     *  features always serialise misses. */
    std::uint32_t mshrs = 1;

    /** Drop dirty-victim flush traffic entirely.  Used by the
     *  Figure 1 harness, which measures the *read-miss* stalling
     *  factor in isolation (Eq. 8 has no flush term). */
    bool suppressFlushTraffic = false;

    /** Hardware prefetch policy. */
    PrefetchPolicy prefetch = PrefetchPolicy::None;

    /** OK when the feature/MSHR combination is consistent;
     *  InvalidArgument otherwise. */
    Status validate() const;
};

/** Cycle accounting of one engine run. */
struct TimingStats
{
    /** Total execution time X in CPU cycles. */
    Cycles cycles = 0;

    /** Instructions executed (E). */
    std::uint64_t instructions = 0;

    /** Data references processed. */
    std::uint64_t references = 0;

    /** Line fills issued (read misses, incl. write-allocate
     *  store misses). */
    std::uint64_t fills = 0;

    /** Write-around store misses sent to memory (W). */
    std::uint64_t writeArounds = 0;

    /** Initial wait for missed data measured from the fill's grant
     *  (phi pool, part 1). */
    Cycles initialMissWait = 0;

    /** Stalls of later accesses against an in-flight line
     *  (phi pool, part 2). */
    Cycles inflightAccessStall = 0;

    /** Stalls of a new miss waiting for a previous fill
     *  (phi pool, part 3). */
    Cycles missSerializationStall = 0;

    /** Synchronous flush cycles (no write buffer). */
    Cycles flushStall = 0;

    /** Synchronous write-around / write-through cycles beyond the
     *  instruction's base cycle. */
    Cycles writeStall = 0;

    /** CPU stalls caused by a full write buffer. */
    Cycles bufferFullStall = 0;

    /** Read grants delayed by a write holding the memory port. */
    Cycles portContentionWait = 0;

    /** Prefetch transfers issued. */
    std::uint64_t prefetchesIssued = 0;

    /** Prefetched lines that served a later demand access. */
    std::uint64_t prefetchesUseful = 0;

    /** Demand accesses that caught their line still in flight
     *  from a prefetch (partial hiding). */
    std::uint64_t prefetchesLate = 0;

    /**
     * Empirical stalling factor: (phi pool) / (fills * mu_m)
     * (Sec. 4.2 / Eq. 8 generalised).  Returns 0 when no fills.
     */
    double phi(Cycles mu_m) const;

    /** Cycles per instruction. */
    double cpi() const;

    /**
     * Mean memory delay per data reference (Sec. 4.5):
     * (X - N_LS) / data references = (X - E)/refs + 1; includes
     * the one-cycle hit times.
     */
    double meanMemoryDelay() const;

    /** Human-readable breakdown. */
    std::string format() const;

    /**
     * Register every counter plus the derived formulas (CPI, mean
     * memory delay, and phi when @p mu_m is nonzero) into the stat
     * registry under @p prefix (e.g. "engine" -> "engine.sim.*",
     * "engine.stall.*").
     */
    void registerStats(obs::StatRegistry &registry,
                       const std::string &prefix,
                       Cycles mu_m = 0) const;
};

/**
 * The engine.  Construct with the full machine description, then
 * run() one or more sources; each run starts from a cold cache.
 */
class TimingEngine
{
  public:
    TimingEngine(const CacheConfig &cache_config,
                 const MemoryConfig &memory_config,
                 const WriteBufferConfig &wbuf_config,
                 const CpuConfig &cpu_config);

    /**
     * Execute up to @p max_refs references of @p source (which is
     * reset first).  Returns the timing statistics; cache counters
     * for the same run are available via cacheStats().
     */
    TimingStats run(TraceSource &source, std::uint64_t max_refs);

    /** Cache counters from the most recent run(). */
    const CacheStats &cacheStats() const { return cache_.stats(); }

    /**
     * Redirect stall-interval tracing (defaults to
     * obs::globalTracer(), which UATM_TRACE arms).  Pass nullptr
     * to restore the default.
     */
    void setTracer(obs::EventTracer *tracer);

  private:
    /** One outstanding line fill. */
    struct InflightFill
    {
        Addr lineAddr = 0;
        Cycles start = 0;    ///< transfer grant time
        Cycles complete = 0; ///< last chunk arrival
        /** Hardware prefetch (does not lock the CPU or the
         *  demand-miss path; only the port). */
        bool isPrefetch = false;
        /** Arrival time per D-byte chunk, indexed by offset/D
         *  (requested-chunk-first wraparound order). */
        std::vector<Cycles> arrivalByChunk;
    };

    SetAssocCache cache_;
    MemoryTiming timing_;
    WriteBufferConfig wbufConfig_;
    CpuConfig cpuConfig_;
    MemoryScheduler scheduler_;
    obs::EventTracer *tracer_; ///< never null; see setTracer()

    std::vector<InflightFill> inflight_;

    /** Drop fills already complete at @p now. */
    void pruneCompleted(Cycles now);

    /** The in-flight fill covering @p line_addr, if any. */
    const InflightFill *findInflight(Addr line_addr) const;

    /** Latest completion among outstanding fills (0 when none);
     *  optionally restricted to demand fills. */
    Cycles latestCompletion(bool demand_only = false) const;

    /** Arrival time of the chunk holding @p addr within @p fill. */
    Cycles chunkArrival(const InflightFill &fill, Addr addr) const;

    /** Start a line fill at @p when; returns the record. */
    InflightFill &issueFill(Cycles when, Addr line_addr, Addr addr,
                            TimingStats &stats);

    /** Prefetched lines not yet touched by a demand access. */
    std::unordered_set<Addr> prefetchedUntouched_;

    /** Issue a hardware prefetch of @p line_addr at @p when. */
    void issuePrefetch(Cycles when, Addr line_addr,
                       TimingStats &stats);

    /** Drop stale entries from prefetchedUntouched_. */
    void prunePrefetchSet();
};

} // namespace uatm

#endif // UATM_CPU_TIMING_ENGINE_HH
