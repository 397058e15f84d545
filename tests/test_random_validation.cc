/**
 * @file
 * Randomized cross-validation: draw random machine geometries,
 * workload shapes and policies from the full supported space and
 * check the load-bearing identities on every draw —
 *
 *  1. engine == Eq. 2 exactly (FS, no buffer), any geometry;
 *  2. Eq. 6 equivalence holds for random feature pairs;
 *  3. Eq. 19 == Smith on random tables and delay models;
 *  4. hit/miss bookkeeping closes on random traces.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "cache/stack_sim.hh"
#include "cache/sweep.hh"
#include "core/execution_time.hh"
#include "core/tradeoff.hh"
#include "cpu/timing_engine.hh"
#include "linesize/line_tradeoff.hh"
#include "trace/generators.hh"
#include "trace/ifetch.hh"
#include "trace/transform.hh"

namespace uatm {
namespace {

class RandomValidation
    : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    Rng rng_{GetParam() * 0x9e3779b97f4a7c15ull + 1};

    CacheConfig
    randomCache()
    {
        CacheConfig config;
        const std::uint64_t size_pow =
            10 + rng_.nextBelow(7); // 1K .. 64K
        config.sizeBytes = 1ull << size_pow;
        config.assoc = 1u << rng_.nextBelow(3); // 1, 2, 4
        const std::uint32_t line_pow =
            3 + static_cast<std::uint32_t>(
                    rng_.nextBelow(4)); // 8..64
        config.lineBytes = 1u << line_pow;
        // Keep at least two sets.
        while (config.numSets() < 2)
            config.sizeBytes *= 2;
        return config;
    }

    MemoryConfig
    randomMemory(std::uint32_t line_bytes)
    {
        MemoryConfig mem;
        const std::uint32_t widths[] = {4, 8, 16, 32};
        do {
            mem.busWidthBytes =
                widths[rng_.nextBelow(4)];
        } while (mem.busWidthBytes > line_bytes);
        mem.cycleTime = 2 + rng_.nextBelow(30);
        return mem;
    }

    WorkingSetGenerator::Config
    randomWorkload()
    {
        WorkingSetGenerator::Config ws;
        ws.stackDepth = 16 + rng_.nextBelow(600);
        ws.decay = 0.9 + rng_.nextDouble() * 0.09;
        ws.coldFraction = rng_.nextDouble() * 0.08;
        ws.storeFraction = rng_.nextDouble() * 0.5;
        ws.accessSize = rng_.nextBool(0.5) ? 4 : 8;
        return ws;
    }
};

TEST_P(RandomValidation, EngineMatchesEq2OnRandomGeometry)
{
    const CacheConfig cache = randomCache();
    const MemoryConfig mem = randomMemory(cache.lineBytes);
    CpuConfig cpu;
    cpu.feature = StallFeature::FS;
    TimingEngine engine(cache, mem, WriteBufferConfig{0, true},
                        cpu);
    WorkingSetGenerator gen(randomWorkload(), rng_.fork());
    const auto stats = engine.run(gen, 8000);
    const auto &cs = engine.cacheStats();

    const std::uint64_t chunks =
        cache.lineBytes / mem.busWidthBytes;
    // Write-allocate: no W term; 8-byte stores may exceed narrow
    // buses only via the flush/fill paths which are line-sized.
    const std::uint64_t expected =
        (cs.instructions - cs.fills) +
        cs.fills * chunks * mem.cycleTime +
        cs.writebacks * chunks * mem.cycleTime;
    EXPECT_EQ(stats.cycles, expected)
        << cache.describe() << " | " << mem.describe();
}

TEST_P(RandomValidation, Eq6EquivalenceOnRandomOperatingPoints)
{
    TradeoffContext ctx;
    const double line_pow = 3 + rng_.nextBelow(4);
    ctx.machine.lineBytes = std::exp2(line_pow);
    ctx.machine.busWidth = 4;
    if (ctx.machine.lineBytes < 8)
        ctx.machine.lineBytes = 8;
    ctx.machine.cycleTime = 2.0 + rng_.nextDouble() * 30.0;
    ctx.alpha = rng_.nextDouble();

    const double hr = 0.85 + rng_.nextDouble() * 0.14;
    const double r = missFactorDoubleBus(ctx);
    const double hr2 = equivalentHitRatio(r, hr);

    const Workload w1 = Workload::fromHitRatio(
        1e6, 2e5, hr, ctx.machine.lineBytes, ctx.alpha);
    const Workload w2 = Workload::fromHitRatio(
        1e6, 2e5, hr2, ctx.machine.lineBytes, ctx.alpha);
    const double x1 = executionTimeFS(w1, ctx.machine);
    const double x2 =
        executionTimeFS(w2, ctx.machine.withDoubledBus());
    EXPECT_NEAR(x1, x2, x1 * 1e-9);
}

TEST_P(RandomValidation, SmithAgreementOnRandomModels)
{
    std::vector<LinePoint> points;
    double mr = 0.02 + rng_.nextDouble() * 0.2;
    for (std::uint32_t line : {8u, 16u, 32u, 64u, 128u}) {
        points.push_back(LinePoint{line, mr});
        mr *= 0.4 + rng_.nextDouble() * 0.55;
    }
    const MissRatioTable table("random", points);
    LineDelayModel model;
    model.c = 1.5 + rng_.nextDouble() * 25.0;
    model.beta = 0.25 + rng_.nextDouble() * 10.0;
    model.busWidth = rng_.nextBool(0.5) ? 4.0 : 8.0;

    const auto ours = tradeoffOptimalLine(table, model, 8);
    const auto smiths = smithOptimalLine(table, model);
    EXPECT_NEAR(
        model.smithObjective(table.missRatio(ours), ours),
        model.smithObjective(table.missRatio(smiths), smiths),
        1e-9);
}

TEST_P(RandomValidation, BookkeepingClosesOnRandomTraces)
{
    const CacheConfig config = randomCache();
    SetAssocCache cache(config);
    Rng addr_rng = rng_.fork();
    std::uint64_t expected_instr = 0;
    const int refs = 5000;
    for (int i = 0; i < refs; ++i) {
        MemoryReference ref;
        ref.addr = addr_rng.nextBelow(4u << 20);
        ref.size = 4;
        ref.addr = alignDown(ref.addr, ref.size);
        ref.gap = static_cast<std::uint32_t>(
            addr_rng.nextBelow(6));
        ref.kind = addr_rng.nextBool(0.3) ? RefKind::Store
                                          : RefKind::Load;
        expected_instr +=
            static_cast<std::uint64_t>(ref.gap) + 1;
        cache.access(ref);
    }
    const CacheStats &s = cache.stats();
    EXPECT_EQ(s.accesses, static_cast<std::uint64_t>(refs));
    EXPECT_EQ(s.instructions, expected_instr);
    EXPECT_EQ(s.hits + s.misses, s.accesses);
    EXPECT_EQ(s.fills, s.misses); // write-allocate
    EXPECT_LE(s.writebacks, s.fills);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomValidation,
                         ::testing::Range<std::uint64_t>(1, 26));

// ==================================================================
// Differential validation of the single-pass stack engine:
// random workloads drawn from every generator, the transform
// stack, the instruction-fetch interleaver and recorded traces,
// checked cell by cell against per-geometry SetAssocCache runs
// (via runCacheSim, so warmup and cold-tracking semantics are
// exercised too).  Every CacheStats field must agree EXACTLY.
// ==================================================================

class StackSimDifferential
    : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    Rng rng_{GetParam() * 0x2545f4914f6cdd1dull + 99};

    std::unique_ptr<TraceSource>
    workingSet(std::uint32_t access_size)
    {
        WorkingSetGenerator::Config ws;
        ws.stackDepth = 32 + rng_.nextBelow(400);
        ws.decay = 0.9 + rng_.nextDouble() * 0.09;
        ws.coldFraction = rng_.nextDouble() * 0.08;
        ws.storeFraction = rng_.nextDouble() * 0.5;
        ws.accessSize = access_size;
        return std::make_unique<WorkingSetGenerator>(ws,
                                                     rng_.fork());
    }

    /** One random workload from the full supported palette. */
    std::unique_ptr<TraceSource>
    makeWorkload()
    {
        switch (rng_.nextBelow(9)) {
        case 0: {
            StrideGenerator::Config cfg;
            cfg.elements = 64 + rng_.nextBelow(2000);
            cfg.strideBytes =
                static_cast<std::int64_t>(4u << rng_.nextBelow(4));
            cfg.elemSize = 4;
            cfg.storeFraction = rng_.nextDouble() * 0.5;
            return std::make_unique<StrideGenerator>(cfg,
                                                     rng_.fork());
        }
        case 1: {
            LoopNestGenerator::Config cfg;
            cfg.rows = 8 + rng_.nextBelow(40);
            cfg.cols = 8 + rng_.nextBelow(40);
            cfg.elemSize = 8;
            cfg.rowMajor = rng_.nextBool(0.5);
            return std::make_unique<LoopNestGenerator>(cfg,
                                                       rng_.fork());
        }
        case 2: {
            PointerChaseGenerator::Config cfg;
            cfg.nodes = 64 + rng_.nextBelow(4000);
            cfg.accessSize = 8;
            cfg.storeFraction = rng_.nextDouble() * 0.4;
            cfg.fieldsPerVisit =
                1 + static_cast<std::uint32_t>(rng_.nextBelow(3));
            return std::make_unique<PointerChaseGenerator>(
                cfg, rng_.fork());
        }
        case 3:
            return workingSet(rng_.nextBool(0.5) ? 4 : 8);
        case 4: {
            std::vector<PhaseMixGenerator::Phase> phases;
            const std::size_t n = 1 + rng_.nextBelow(3);
            for (std::size_t i = 0; i < n; ++i)
                phases.push_back(PhaseMixGenerator::Phase{
                    workingSet(4), 50 + rng_.nextBelow(400)});
            return std::make_unique<PhaseMixGenerator>(
                std::move(phases));
        }
        case 5: {
            // Transform stack: offset + sampling.
            auto inner = std::make_unique<SampleSource>(
                workingSet(4),
                2 + static_cast<std::uint32_t>(rng_.nextBelow(4)));
            return std::make_unique<OffsetSource>(
                std::move(inner),
                static_cast<std::int64_t>(rng_.nextBelow(1 << 20)) &
                    ~63ll);
        }
        case 6: {
            // Two time-sliced programs, one load-filtered.
            std::vector<std::unique_ptr<TraceSource>> programs;
            programs.push_back(std::make_unique<OffsetSource>(
                workingSet(4), 1 << 22));
            programs.push_back(std::make_unique<KindFilterSource>(
                workingSet(8), true, false, true));
            return std::make_unique<TimeSliceSource>(
                std::move(programs), 100 + rng_.nextBelow(300));
        }
        case 7: {
            IFetchConfig cfg;
            return std::make_unique<IFetchInterleaver>(
                workingSet(4), cfg, rng_.fork());
        }
        default: {
            // A recorded trace, sometimes shorter than the run.
            std::vector<MemoryReference> refs;
            const std::size_t count = 800 + rng_.nextBelow(4000);
            Rng addr_rng = rng_.fork();
            for (std::size_t i = 0; i < count; ++i) {
                MemoryReference ref;
                ref.size = addr_rng.nextBool(0.5) ? 4 : 8;
                ref.addr = alignDown(
                    addr_rng.nextBelow(1u << 18), ref.size);
                ref.gap = static_cast<std::uint32_t>(
                    addr_rng.nextBelow(5));
                ref.kind = addr_rng.nextBool(0.35)
                               ? RefKind::Store
                               : RefKind::Load;
                refs.push_back(ref);
            }
            return std::make_unique<Trace>(std::move(refs));
        }
        }
    }
};

TEST_P(StackSimDifferential, SurfaceEqualsPerGeometryRuns)
{
    const std::uint32_t line = 16u << rng_.nextBelow(3);
    const WritePolicy write = rng_.nextBool(0.3)
                                  ? WritePolicy::WriteThrough
                                  : WritePolicy::WriteBack;

    std::vector<CacheConfig> configs;
    for (std::uint64_t size_lines : {16ull, 64ull, 256ull}) {
        for (std::uint32_t assoc : {1u, 2u, 4u}) {
            CacheConfig config;
            config.sizeBytes = size_lines * line;
            config.assoc = assoc;
            config.lineBytes = line;
            config.write = write;
            ASSERT_TRUE(config.validate().ok());
            configs.push_back(config);
        }
    }
    // Fully associative single-set cache: the inclusion property's
    // boundary case (stack distance == global recency rank).
    CacheConfig full;
    full.sizeBytes = 16ull * line;
    full.assoc = 16;
    full.lineBytes = line;
    full.write = write;
    ASSERT_EQ(full.numSets(), 1u);
    configs.push_back(full);

    GeometryGrid grid;
    grid.lineBytes = line;
    grid.write = write;
    for (const CacheConfig &config : configs)
        grid.addConfig(config);

    const std::uint64_t refs = 3000;
    const std::uint64_t warmup =
        rng_.nextBool(0.5) ? 200 + rng_.nextBelow(500) : 0;

    auto source = makeWorkload();
    const GeometryHitSurface surface =
        runStackSim(grid, *source, refs, warmup);

    for (const CacheConfig &config : configs) {
        // runCacheSim resets the source, so both passes and every
        // geometry see the identical reference stream.
        const CacheRunResult run =
            runCacheSim(config, *source, refs, warmup);
        const auto cell = surface.statsFor(config);
        ASSERT_TRUE(cell.ok()) << config.describe();
        const CacheStats &got = cell.value();
        const CacheStats &want = run.stats;
        const std::string label = config.describe();
        EXPECT_EQ(got.accesses, want.accesses) << label;
        EXPECT_EQ(got.loads, want.loads) << label;
        EXPECT_EQ(got.stores, want.stores) << label;
        EXPECT_EQ(got.hits, want.hits) << label;
        EXPECT_EQ(got.misses, want.misses) << label;
        EXPECT_EQ(got.loadMisses, want.loadMisses) << label;
        EXPECT_EQ(got.storeMisses, want.storeMisses) << label;
        EXPECT_EQ(got.fills, want.fills) << label;
        EXPECT_EQ(got.writebacks, want.writebacks) << label;
        EXPECT_EQ(got.storesToMemory, want.storesToMemory)
            << label;
        EXPECT_EQ(got.storesToMemoryBytes,
                  want.storesToMemoryBytes)
            << label;
        EXPECT_EQ(got.prefetchInserts, want.prefetchInserts)
            << label;
        EXPECT_EQ(got.instructions, want.instructions) << label;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackSimDifferential,
                         ::testing::Range<std::uint64_t>(1, 25));

} // namespace
} // namespace uatm
