/**
 * @file
 * Implementation of the cache sweep drivers.
 */

#include "cache/sweep.hh"

#include <atomic>

#include "cache/stack_sim.hh"
#include "obs/profile.hh"
#include "util/logging.hh"

namespace uatm {

namespace {

std::atomic<std::uint64_t> g_fastPathSweeps{0};
std::atomic<std::uint64_t> g_declinedSweeps{0};
std::atomic<std::uint64_t> g_perPointSweeps{0};

} // namespace

SweepDispatchCounters
sweepDispatchCounters()
{
    SweepDispatchCounters counters;
    counters.fastPath =
        g_fastPathSweeps.load(std::memory_order_relaxed);
    counters.declined =
        g_declinedSweeps.load(std::memory_order_relaxed);
    counters.perPoint =
        g_perPointSweeps.load(std::memory_order_relaxed);
    return counters;
}

void
resetSweepDispatchStats()
{
    g_fastPathSweeps.store(0, std::memory_order_relaxed);
    g_declinedSweeps.store(0, std::memory_order_relaxed);
    g_perPointSweeps.store(0, std::memory_order_relaxed);
}

void
noteSweepDispatch(bool fast_path, bool structural,
                  const std::string &reason)
{
    if (fast_path) {
        g_fastPathSweeps.fetch_add(1, std::memory_order_relaxed);
    } else if (structural) {
        g_perPointSweeps.fetch_add(1, std::memory_order_relaxed);
    } else {
        g_declinedSweeps.fetch_add(1, std::memory_order_relaxed);
        warn("geometry sweep fell back to per-point simulation: ",
             reason);
    }
}

CacheRunResult
runCacheSim(const CacheConfig &config, TraceSource &source,
            std::uint64_t refs, std::uint64_t warmup_refs)
{
    UATM_PROFILE_SCOPE("cache.run_sim");
    UATM_ASSERT(warmup_refs <= refs,
                "warmup longer than the whole run");
    source.reset();
    SetAssocCache cache(config);
    // Long runs don't need the cold-miss hash set.
    cache.setColdTracking(refs <= (1u << 22));

    BatchPump pump(source);
    const auto access = [&](const MemoryReference *batch,
                            std::size_t count) {
        for (std::size_t i = 0; i < count; ++i)
            cache.access(batch[i]);
    };
    pump.pumpTo(warmup_refs, access);
    // Measure only the post-warmup window.
    const CacheStats warm = cache.stats();
    pump.pumpTo(refs, access);

    CacheStats measured = cache.stats();
    measured.accesses -= warm.accesses;
    measured.loads -= warm.loads;
    measured.stores -= warm.stores;
    measured.hits -= warm.hits;
    measured.misses -= warm.misses;
    measured.loadMisses -= warm.loadMisses;
    measured.storeMisses -= warm.storeMisses;
    measured.fills -= warm.fills;
    measured.writebacks -= warm.writebacks;
    measured.storesToMemory -= warm.storesToMemory;
    measured.coldMisses -= warm.coldMisses;
    measured.instructions -= warm.instructions;

    return CacheRunResult{cache.config(), measured};
}

namespace {

/** Shared body of the two geometry sweeps: vary one knob, rerun. */
std::vector<SweepPoint>
sweepGeometry(const CacheConfig &base, TraceSource &source,
              const std::vector<std::uint64_t> &values,
              std::uint64_t refs, std::uint64_t warmup_refs,
              void (*set)(CacheConfig &, std::uint64_t))
{
    std::vector<SweepPoint> points;
    points.reserve(values.size());
    for (std::uint64_t value : values) {
        CacheConfig config = base;
        set(config, value);
        const auto run = runCacheSim(config, source, refs,
                                     warmup_refs);
        points.push_back(SweepPoint{value, run.hitRatio(),
                                    run.missRatio(),
                                    run.flushRatio()});
    }
    return points;
}

} // namespace

std::vector<SweepPoint>
sweepCacheSize(const CacheConfig &base, TraceSource &source,
               const std::vector<std::uint64_t> &sizes,
               std::uint64_t refs, std::uint64_t warmup_refs)
{
    UATM_PROFILE_SCOPE("cache.sweep_size");
    if (sizes.empty())
        return {};
    if (const char *reason = stackSimIneligibleReason(base)) {
        noteSweepDispatch(false, false, reason);
        return sweepGeometry(
            base, source, sizes, refs, warmup_refs,
            [](CacheConfig &config, std::uint64_t v) {
                config.sizeBytes = v;
            });
    }

    // Single-pass fast path: all points share line size and
    // policies and differ only in set count, so one stack pass
    // prices every size at once.  An invalid size throws the same
    // StatusError the per-point path's cache constructor would.
    GeometryGrid grid;
    grid.lineBytes = base.lineBytes;
    grid.write = base.write;
    grid.writeMiss = base.writeMiss;
    std::vector<CacheConfig> configs;
    configs.reserve(sizes.size());
    for (std::uint64_t size : sizes) {
        CacheConfig config = base;
        config.sizeBytes = size;
        okOrThrow(config.validate());
        grid.addConfig(config);
        configs.push_back(config);
    }
    noteSweepDispatch(true, false, {});

    const GeometryHitSurface surface =
        runStackSim(grid, source, refs, warmup_refs);
    std::vector<SweepPoint> points;
    points.reserve(sizes.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const CacheRunResult run{
            configs[i],
            surface.stats(configs[i].numSets(),
                          configs[i].assoc)};
        points.push_back(SweepPoint{sizes[i], run.hitRatio(),
                                    run.missRatio(),
                                    run.flushRatio()});
    }
    return points;
}

std::vector<SweepPoint>
sweepLineSize(const CacheConfig &base, TraceSource &source,
              const std::vector<std::uint32_t> &line_sizes,
              std::uint64_t refs, std::uint64_t warmup_refs)
{
    UATM_PROFILE_SCOPE("cache.sweep_line");
    // Varying the line size changes the reference -> line mapping
    // itself, which the stack reduction cannot share; the line
    // axis is per-point by design, not a decline.
    noteSweepDispatch(false, true, {});
    std::vector<std::uint64_t> values(line_sizes.begin(),
                                      line_sizes.end());
    return sweepGeometry(base, source, values, refs, warmup_refs,
                         [](CacheConfig &config, std::uint64_t v) {
                             config.lineBytes =
                                 static_cast<std::uint32_t>(v);
                         });
}

} // namespace uatm
