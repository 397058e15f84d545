/**
 * @file
 * Unit tests for the single-pass stack-distance engine
 * (cache/stack_sim): grid validation, exact agreement with
 * SetAssocCache on individual geometries under both write
 * policies, warmup-window equality with runCacheSim (every
 * counter, store bytes included, and a size grid's ratios),
 * exhausted sources, and the dispatch eligibility predicate.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/stack_sim.hh"
#include "cache/sweep.hh"
#include "trace/generators.hh"

namespace uatm {
namespace {

void
expectStatsEqual(const CacheStats &got, const CacheStats &want,
                 const std::string &label)
{
    EXPECT_EQ(got.accesses, want.accesses) << label;
    EXPECT_EQ(got.loads, want.loads) << label;
    EXPECT_EQ(got.stores, want.stores) << label;
    EXPECT_EQ(got.hits, want.hits) << label;
    EXPECT_EQ(got.misses, want.misses) << label;
    EXPECT_EQ(got.loadMisses, want.loadMisses) << label;
    EXPECT_EQ(got.storeMisses, want.storeMisses) << label;
    EXPECT_EQ(got.fills, want.fills) << label;
    EXPECT_EQ(got.writebacks, want.writebacks) << label;
    EXPECT_EQ(got.storesToMemory, want.storesToMemory) << label;
    EXPECT_EQ(got.storesToMemoryBytes, want.storesToMemoryBytes)
        << label;
    EXPECT_EQ(got.prefetchInserts, want.prefetchInserts) << label;
    EXPECT_EQ(got.instructions, want.instructions) << label;
}

std::unique_ptr<TraceSource>
workingSetSource(std::uint64_t seed)
{
    WorkingSetGenerator::Config ws;
    ws.stackDepth = 200;
    ws.decay = 0.97;
    ws.coldFraction = 0.04;
    ws.storeFraction = 0.35;
    return std::make_unique<WorkingSetGenerator>(ws, Rng(seed));
}

TEST(GeometryGridTest, ValidateRejectsBadShapes)
{
    GeometryGrid grid;
    grid.setCounts = {64};
    grid.assocs = {2};
    EXPECT_TRUE(grid.validate().ok());

    GeometryGrid empty;
    EXPECT_FALSE(empty.validate().ok());

    GeometryGrid bad_line = grid;
    bad_line.lineBytes = 48;
    EXPECT_FALSE(bad_line.validate().ok());

    GeometryGrid bad_sets = grid;
    bad_sets.setCounts = {64, 96};
    EXPECT_FALSE(bad_sets.validate().ok());

    GeometryGrid bad_assoc = grid;
    bad_assoc.assocs = {2, 0};
    EXPECT_FALSE(bad_assoc.validate().ok());

    GeometryGrid around = grid;
    around.writeMiss = WriteMissPolicy::WriteAround;
    EXPECT_FALSE(around.validate().ok());
}

TEST(GeometryGridTest, AddConfigDeduplicates)
{
    GeometryGrid grid;
    CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.assoc = 2;
    config.lineBytes = 32;
    grid.addConfig(config);
    grid.addConfig(config);
    config.sizeBytes = 16 * 1024; // same set count at 4-way
    config.assoc = 4;
    grid.addConfig(config);
    EXPECT_EQ(grid.setCounts.size(), 1u);
    EXPECT_EQ(grid.assocs.size(), 2u);
}

TEST(StackSimulatorTest, RejectsInvalidGrid)
{
    GeometryGrid grid; // no cells
    EXPECT_THROW(StackSimulator{grid}, StatusError);
}

/** Nine geometries whose eight set counts come unsorted, a
 *  fully associative cache among them. */
std::vector<CacheConfig>
mixedGeometries()
{
    std::vector<CacheConfig> configs;
    for (std::uint64_t size : {1024ull, 4096ull, 16384ull}) {
        for (std::uint32_t assoc : {1u, 2u, 8u}) {
            CacheConfig config;
            config.sizeBytes = size;
            config.assoc = assoc;
            config.lineBytes = 32;
            configs.push_back(config);
        }
    }
    // Fully associative: one set holding every line.
    CacheConfig full;
    full.sizeBytes = 1024;
    full.lineBytes = 32;
    full.assoc = 32;
    configs.push_back(full);
    return configs;
}

TEST(StackSimulatorTest, MatchesSetAssocCachePerGeometry)
{
    const std::vector<CacheConfig> configs = mixedGeometries();
    for (const CacheConfig &config : configs)
        ASSERT_TRUE(config.validate().ok()) << config.describe();
    ASSERT_EQ(configs.back().numSets(), 1u);

    GeometryGrid grid;
    for (const CacheConfig &config : configs)
        grid.addConfig(config);

    StackSimulator sim(grid);
    std::vector<SetAssocCache> caches;
    caches.reserve(configs.size());
    for (const CacheConfig &config : configs)
        caches.emplace_back(config);

    auto source = workingSetSource(17);
    for (int i = 0; i < 6000; ++i) {
        const auto ref = source->next();
        ASSERT_TRUE(ref.has_value());
        sim.access(*ref);
        for (SetAssocCache &cache : caches)
            cache.access(*ref);
    }

    const GeometryHitSurface surface = sim.surface();
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto stats = surface.statsFor(configs[i]);
        ASSERT_TRUE(stats.ok()) << configs[i].describe();
        expectStatsEqual(stats.value(), caches[i].stats(),
                         configs[i].describe());
    }
}

TEST(StackSimulatorTest, VisitsStopAtTheFirstMruSpace)
{
    // Set counts given unsorted: the simulator visits 1, 4, 16.
    GeometryGrid grid;
    grid.setCounts = {4, 1, 16};
    grid.assocs = {1, 2};
    StackSimulator sim(grid);
    EXPECT_EQ(sim.grid().setCounts,
              (std::vector<std::uint64_t>{1, 4, 16}));

    std::vector<CacheConfig> configs;
    std::vector<SetAssocCache> caches;
    caches.reserve(6);
    for (std::uint64_t sets : {1u, 4u, 16u}) {
        for (std::uint32_t assoc : grid.assocs) {
            CacheConfig config;
            config.lineBytes = 32;
            config.assoc = assoc;
            config.sizeBytes = sets * assoc * config.lineBytes;
            configs.push_back(config);
            caches.emplace_back(config);
        }
    }
    const auto touch = [&](Addr addr, RefKind kind) {
        const MemoryReference ref{addr, 0, 4, kind};
        for (SetAssocCache &cache : caches)
            cache.access(ref);
        const std::uint64_t before = sim.spaceVisits();
        sim.access(ref);
        return sim.spaceVisits() - before;
    };
    // Line 0 is new: an empty way must not match it anywhere.
    EXPECT_EQ(touch(0x0, RefKind::Load), 3u);
    // MRU at 1 set, so at 4 and 16 too: one visit, load or store.
    // The store still dirties line 0 in all three spaces.
    EXPECT_EQ(touch(0x0, RefKind::Load), 1u);
    EXPECT_EQ(touch(0x4, RefKind::Store), 1u);
    EXPECT_EQ(touch(0x20, RefKind::Load), 3u); // line 1 is new
    // Line 0 sits under line 1 in the one set, but is MRU in its
    // own set at 4 sets: two visits.
    EXPECT_EQ(touch(0x0, RefKind::Load), 2u);
    // Line 4 is new; at 4 sets it evicts the dirty line 0 from
    // the direct-mapped cache.
    EXPECT_EQ(touch(0x80, RefKind::Load), 3u);
    EXPECT_EQ(sim.spaceVisits(), 13u);

    const GeometryHitSurface surface = sim.surface();
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto stats = surface.statsFor(configs[i]);
        ASSERT_TRUE(stats.ok()) << configs[i].describe();
        expectStatsEqual(stats.value(), caches[i].stats(),
                         configs[i].describe());
    }
    // configs[2] is the direct-mapped cache of 4 sets.
    EXPECT_EQ(surface.statsFor(configs[2]).value().writebacks, 1u);

    // A longer stream over the unsorted grid of
    // MatchesSetAssocCachePerGeometry (8 set counts, 1 to 512):
    // 28835 visits where a search in every space would make 48000.
    GeometryGrid mixed;
    for (const CacheConfig &config : mixedGeometries())
        mixed.addConfig(config);
    StackSimulator mixed_sim(mixed);
    auto source = workingSetSource(17);
    for (int i = 0; i < 6000; ++i)
        mixed_sim.access(*source->next());
    EXPECT_EQ(mixed_sim.spaceVisits(), 28835u);
}

TEST(StackSimulatorTest, MatchesWriteThroughCache)
{
    CacheConfig config;
    config.sizeBytes = 4096;
    config.assoc = 2;
    config.lineBytes = 32;
    config.write = WritePolicy::WriteThrough;

    GeometryGrid grid;
    grid.write = WritePolicy::WriteThrough;
    grid.addConfig(config);

    StackSimulator sim(grid);
    SetAssocCache cache(config);
    auto source = workingSetSource(23);
    for (int i = 0; i < 5000; ++i) {
        const auto ref = source->next();
        ASSERT_TRUE(ref.has_value());
        sim.access(*ref);
        cache.access(*ref);
    }
    const auto stats = sim.surface().statsFor(config);
    ASSERT_TRUE(stats.ok());
    expectStatsEqual(stats.value(), cache.stats(),
                     "write-through");
    EXPECT_EQ(stats.value().writebacks, 0u);
}

TEST(RunStackSimTest, WarmupWindowMatchesRunCacheSim)
{
    CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.assoc = 4;
    config.lineBytes = 32;
    GeometryGrid grid;
    grid.addConfig(config);

    auto a = workingSetSource(31);
    auto b = workingSetSource(31);
    const GeometryHitSurface surface =
        runStackSim(grid, *a, 9000, 1500);
    const CacheRunResult run = runCacheSim(config, *b, 9000, 1500);
    const auto stats = surface.statsFor(config);
    ASSERT_TRUE(stats.ok());
    expectStatsEqual(stats.value(), run.stats, "warmup window");
}

TEST(RunStackSimTest, ExhaustedSourceMatchesPerGeometryRun)
{
    // A finite Trace shorter than the requested window.
    std::vector<MemoryReference> refs;
    Rng rng(5);
    for (int i = 0; i < 700; ++i) {
        MemoryReference ref;
        ref.addr = rng.nextBelow(1 << 14) & ~3ull;
        ref.size = 4;
        ref.kind =
            rng.nextBool(0.4) ? RefKind::Store : RefKind::Load;
        ref.gap = static_cast<std::uint32_t>(rng.nextBelow(4));
        refs.push_back(ref);
    }
    CacheConfig config;
    config.sizeBytes = 2048;
    config.assoc = 2;
    config.lineBytes = 16;
    GeometryGrid grid;
    grid.lineBytes = 16;
    grid.addConfig(config);

    Trace a(refs);
    Trace b(refs);
    const GeometryHitSurface surface =
        runStackSim(grid, a, 5000, 100);
    const CacheRunResult run = runCacheSim(config, b, 5000, 100);
    const auto stats = surface.statsFor(config);
    ASSERT_TRUE(stats.ok());
    expectStatsEqual(stats.value(), run.stats, "exhausted trace");
}

TEST(GeometryHitSurfaceTest, StatsForRejectsForeignConfigs)
{
    CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.assoc = 2;
    config.lineBytes = 32;
    GeometryGrid grid;
    grid.addConfig(config);
    auto source = workingSetSource(3);
    const GeometryHitSurface surface =
        runStackSim(grid, *source, 500);

    CacheConfig other_line = config;
    other_line.lineBytes = 64;
    other_line.assoc = 2;
    EXPECT_FALSE(surface.statsFor(other_line).ok());

    CacheConfig other_cell = config;
    other_cell.assoc = 4; // cell not in the grid
    EXPECT_FALSE(surface.statsFor(other_cell).ok());

    CacheConfig fifo = config;
    fifo.replacement = ReplacementKind::FIFO;
    EXPECT_FALSE(surface.statsFor(fifo).ok());

    CacheConfig invalid = config;
    invalid.sizeBytes = 5000;
    EXPECT_FALSE(surface.statsFor(invalid).ok());
}

TEST(StackSimEligibilityTest, ReportsTheDisqualifyingProperty)
{
    CacheConfig config;
    EXPECT_EQ(stackSimIneligibleReason(config), nullptr);

    config.write = WritePolicy::WriteThrough;
    EXPECT_EQ(stackSimIneligibleReason(config), nullptr);

    CacheConfig fifo;
    fifo.replacement = ReplacementKind::FIFO;
    EXPECT_NE(stackSimIneligibleReason(fifo), nullptr);

    CacheConfig around;
    around.writeMiss = WriteMissPolicy::WriteAround;
    EXPECT_NE(stackSimIneligibleReason(around), nullptr);
}

TEST(WarmupWindowTest, SubtractsEveryCounter)
{
    // Write-through sends every store to memory, so a warmed run
    // must drop the warm-up's store bytes along with its store
    // count, or writeTransfers() prices the whole run's traffic.
    CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.assoc = 2;
    config.lineBytes = 32;
    config.write = WritePolicy::WriteThrough;
    auto source = Spec92Profile::make("nasa7", 3);
    const CacheStats whole = runCacheSim(config, *source, 100000).stats;
    const CacheStats prefix = runCacheSim(config, *source, 10000).stats;
    const CacheStats warmed =
        runCacheSim(config, *source, 100000, 10000).stats;

    EXPECT_EQ(warmed.hits, whole.hits - prefix.hits);
    EXPECT_EQ(warmed.misses, whole.misses - prefix.misses);
    EXPECT_EQ(warmed.storesToMemory,
              whole.storesToMemory - prefix.storesToMemory);
    EXPECT_EQ(warmed.storesToMemoryBytes,
              whole.storesToMemoryBytes - prefix.storesToMemoryBytes);
    EXPECT_LT(warmed.writeTransfers(4), whole.writeTransfers(4));

    GeometryGrid grid;
    grid.lineBytes = config.lineBytes;
    grid.write = config.write;
    grid.addConfig(config);
    const GeometryHitSurface surface =
        runStackSim(grid, *source, 100000, 10000);
    expectStatsEqual(surface.statsFor(config).value(), warmed,
                     "stack sim, warmed");
}

TEST(SweepFastPathTest, SweepCacheSizeMatchesBruteForce)
{
    // The fast path of a size sweep: one warmed pass over the whole
    // size grid, each size looked up in the surface.  Its ratios
    // must be the same doubles as one runCacheSim per size.
    CacheConfig base;
    base.assoc = 2;
    base.lineBytes = 32;
    const std::vector<std::uint64_t> sizes = {1024, 4096, 16384,
                                              65536};
    GeometryGrid grid;
    for (std::uint64_t size : sizes) {
        CacheConfig config = base;
        config.sizeBytes = size;
        grid.addConfig(config);
    }
    auto fast_source = workingSetSource(41);
    const GeometryHitSurface surface =
        runStackSim(grid, *fast_source, 8000, 800);

    auto brute_source = workingSetSource(41);
    for (std::uint64_t size : sizes) {
        CacheConfig config = base;
        config.sizeBytes = size;
        const auto stats = surface.statsFor(config);
        ASSERT_TRUE(stats.ok()) << size;
        const CacheRunResult fast{config, stats.value()};
        const CacheRunResult run =
            runCacheSim(config, *brute_source, 8000, 800);
        EXPECT_EQ(fast.hitRatio(), run.hitRatio()) << size;
        EXPECT_EQ(fast.missRatio(), run.missRatio()) << size;
        EXPECT_EQ(fast.flushRatio(), run.flushRatio()) << size;
    }
}

} // namespace
} // namespace uatm
