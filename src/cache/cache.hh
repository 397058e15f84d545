/**
 * @file
 * Functional set-associative cache model.
 *
 * Tracks hits, misses, fills and write-backs, and can summarise a
 * run directly in the paper's workload vocabulary {E, R, W, alpha}
 * (Table 1), which is what couples the simulator substrate to the
 * analytical tradeoff model in src/core.
 */

#ifndef UATM_CACHE_CACHE_HH
#define UATM_CACHE_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "cache/replacement.hh"
#include "trace/ref.hh"

namespace uatm::obs {
class StatRegistry;
} // namespace uatm::obs

namespace uatm {

/** What one cache access did. */
struct AccessOutcome
{
    /** Line-aligned address of the access. */
    Addr lineAddr = 0;

    /** The access hit in the cache. */
    bool hit = false;

    /** A line was brought in from memory (R grows by L bytes). */
    bool fill = false;

    /** A dirty line was evicted and must be flushed. */
    bool writeback = false;

    /** Line address of the flushed victim (valid iff writeback). */
    Addr victimLineAddr = 0;

    /** A valid line (dirty or clean) was displaced by the fill —
     *  what a victim buffer would capture. */
    bool evictedValid = false;

    /** Line address of the displaced line (valid iff
     *  evictedValid). */
    Addr evictedLineAddr = 0;

    /** The displaced line was dirty. */
    bool evictedDirty = false;

    /** A store bypassed the cache to memory (write-around miss,
     *  or any store under write-through). */
    bool storeToMemory = false;
};

/** Aggregate counters for one cache instance. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t loadMisses = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t fills = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t storesToMemory = 0;
    /** Bytes carried by those stores, for converting W into bus
     *  transfers when a store is wider than the bus (Table 1's
     *  decomposition of W). */
    std::uint64_t storesToMemoryBytes = 0;
    /** Lines inserted by hardware prefetch (not demand fills). */
    std::uint64_t prefetchInserts = 0;
    /** Instructions E implied by the reference stream (gaps + refs). */
    std::uint64_t instructions = 0;

    double hitRatio() const;
    double missRatio() const;

    /** Bytes read from memory: fills * line size. */
    std::uint64_t bytesRead(std::uint32_t line_bytes) const;

    /** Bytes flushed: writebacks * line size. */
    std::uint64_t bytesFlushed(std::uint32_t line_bytes) const;

    /** Paper's flush ratio alpha = flushed bytes / read bytes. */
    double flushRatio(std::uint32_t line_bytes) const;

    /**
     * W in bus transfers: stores wider than the bus take
     * ceil(size/D) memory cycles (Table 1).  Assumes every store
     * to memory has the same size, which holds for the bundled
     * generators; exact when no store exceeds the bus.
     */
    double writeTransfers(std::uint32_t bus_width_bytes) const;

    /**
     * The counts accumulated after @p start, an earlier snapshot
     * of the same run: every counter minus its value there.  This
     * is how a warmed run measures its post-warmup window.
     */
    CacheStats since(const CacheStats &start) const;

    /** Multi-line human-readable block. */
    std::string format(std::uint32_t line_bytes) const;

    /**
     * Register every counter plus the ratio formulas into the stat
     * registry under @p prefix (e.g. "cache" -> "cache.hits").
     */
    void registerStats(obs::StatRegistry &registry,
                       const std::string &prefix,
                       std::uint32_t line_bytes) const;
};

/** What a prefetch insertion did. */
struct PrefetchOutcome
{
    /** False when the line was already present (no-op). */
    bool inserted = false;

    /** A dirty victim was evicted and must be flushed. */
    bool writeback = false;

    /** Line address of the flushed victim (valid iff writeback). */
    Addr victimLineAddr = 0;
};

/** What a direct line installation did (victim-cache swaps). */
struct InstallOutcome
{
    /** False when the line was already present (no-op). */
    bool inserted = false;

    /** A valid line was displaced. */
    bool evictedValid = false;

    /** Line address of the displaced line. */
    Addr evictedLineAddr = 0;

    /** The displaced line was dirty. */
    bool evictedDirty = false;
};

/**
 * Throw the InvalidArgument StatusError for an access of @p size
 * bytes that a @p line_bytes line cannot hold.  Both simulators'
 * access() call it; it is out of line and cold, so their check
 * stays one branch.
 */
[[noreturn, gnu::cold]] void
throwAccessWiderThanLine(unsigned size, std::uint32_t line_bytes);

/**
 * The cache proper.  Purely functional (no timing): the timing
 * engine in src/cpu layers stall behaviour on top of the outcomes
 * this model reports.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &config);

    /** Apply one reference and report what happened.  An access
     *  wider than a line throws StatusError (InvalidArgument). */
    AccessOutcome access(const MemoryReference &ref);

    /**
     * Insert the line holding @p addr without a demand reference
     * (hardware prefetch, paper Sec. 3.3's latency-hiding remark).
     * Counted in stats().prefetchInserts, not in fills; demand
     * statistics are untouched.
     */
    PrefetchOutcome prefetchLine(Addr addr);

    /**
     * Install the line holding @p addr with the given dirty state
     * and report the displaced line without counting any flush or
     * demand statistics — the mechanism a victim buffer uses to
     * swap lines back in.
     */
    InstallOutcome installLine(Addr addr, bool dirty);

    /** Hit test without updating replacement state or stats. */
    bool probe(Addr addr) const;

    /** True when the line holding @p addr is present and dirty. */
    bool probeDirty(Addr addr) const;

    /**
     * Evict everything; returns the number of dirty lines that
     * would be flushed.  Stats are not altered.
     */
    std::uint64_t invalidateAll();

    /** Restart: empty cache, zeroed statistics. */
    void reset();

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
    };

    CacheConfig config_;
    std::uint64_t setMask_;
    std::uint32_t lineShift_;
    std::vector<Line> lines_; ///< [set * assoc + way]
    std::unique_ptr<ReplacementPolicy> replacement_;
    CacheStats stats_;

    std::uint64_t setIndex(Addr addr) const;
    Addr lineAddr(Addr addr) const;
    Line &line(std::uint64_t set, std::uint32_t way);
    const Line &line(std::uint64_t set, std::uint32_t way) const;

    /** Way holding @p addr in @p set, if any. */
    std::optional<std::uint32_t> findWay(std::uint64_t set,
                                         Addr line_addr) const;

    /** Way a fill into @p set takes: its first invalid way, or the
     *  policy's victim when every way is valid. */
    std::uint32_t wayToFill(std::uint64_t set);
};

} // namespace uatm

#endif // UATM_CACHE_CACHE_HH
