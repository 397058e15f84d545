/**
 * @file
 * Implementation of runCacheSim and the sweep dispatch tally.
 */

#include "cache/sweep.hh"

#include <atomic>

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
    UATM_PROFILE_SCOPE("cache.sim");
    UATM_ASSERT(warmup_refs <= refs,
                "warmup longer than the whole run");
    source.reset();
    SetAssocCache cache(config);

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

    return CacheRunResult{cache.config(), cache.stats().since(warm)};
}

} // namespace uatm
