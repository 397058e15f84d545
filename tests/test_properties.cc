/**
 * @file
 * Parameterized property suites (TEST_P) sweeping the model and the
 * simulator across their operating ranges:
 *
 *  - the Eq. 6 equivalence property at every (mu_m, L, HR, alpha);
 *  - Table 2 phi bounds for every (feature, profile, mu_m);
 *  - cache statistics invariants across geometries and policies;
 *  - LRU conformance against a reference stack model;
 *  - Eq. 19 / Smith agreement on randomized miss-ratio tables;
 *  - memory-scheduler invariants under random operation streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cache/cache.hh"
#include "cache/stack_sim.hh"
#include "core/execution_time.hh"
#include "core/tradeoff.hh"
#include "cpu/phi_measurement.hh"
#include "linesize/line_tradeoff.hh"
#include "memory/write_buffer.hh"
#include "trace/generators.hh"
#include "trace/ifetch.hh"
#include "trace/reuse_distance.hh"
#include "trace/trace_stats.hh"
#include "trace/ycsb.hh"

#include "expect_status.hh"

namespace uatm {
namespace {

// ==================================================================
// Eq. 6 equivalence property
// ==================================================================

using EquivParam = std::tuple<double /*mu*/, double /*L*/,
                              double /*HR*/, double /*alpha*/>;

class EquivalenceSweep
    : public ::testing::TestWithParam<EquivParam>
{
};

TEST_P(EquivalenceSweep, Eq6HitRatioYieldsEqualExecutionTime)
{
    const auto [mu, line, hr, alpha] = GetParam();
    TradeoffContext ctx;
    ctx.machine.busWidth = 4;
    ctx.machine.lineBytes = line;
    ctx.machine.cycleTime = mu;
    ctx.alpha = alpha;

    const double r = missFactorDoubleBus(ctx);
    const double hr2 = equivalentHitRatio(r, hr);

    const Workload w1 =
        Workload::fromHitRatio(2e6, 5e5, hr, line, alpha);
    const Workload w2 =
        Workload::fromHitRatio(2e6, 5e5, hr2, line, alpha);
    const double x1 = executionTimeFS(w1, ctx.machine);
    const double x2 =
        executionTimeFS(w2, ctx.machine.withDoubledBus());
    EXPECT_NEAR(x1, x2, x1 * 1e-10);

    // And the mean memory delays agree (Sec. 4.5).
    EXPECT_NEAR(
        meanMemoryDelay(w1, ctx.machine,
                        ctx.machine.lineOverBus()),
        meanMemoryDelay(w2, ctx.machine.withDoubledBus(),
                        ctx.machine.withDoubledBus().lineOverBus()),
        1e-9);
}

TEST_P(EquivalenceSweep, Eq7RoundTripsThroughEq6)
{
    const auto [mu, line, hr, alpha] = GetParam();
    TradeoffContext ctx;
    ctx.machine.busWidth = 4;
    ctx.machine.lineBytes = line;
    ctx.machine.cycleTime = mu;
    ctx.alpha = alpha;
    const double r = missFactorDoubleBus(ctx);
    const double hr1 = hr + hitRatioGainRequired(r, hr);
    ASSERT_LE(hr1, 1.0);
    EXPECT_NEAR(equivalentHitRatio(r, hr1), hr, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, EquivalenceSweep,
    ::testing::Combine(::testing::Values(2.0, 4.0, 9.0, 17.0),
                       ::testing::Values(8.0, 16.0, 32.0),
                       ::testing::Values(0.90, 0.95, 0.99),
                       ::testing::Values(0.0, 0.3, 0.5, 1.0)));

// ==================================================================
// Table 2 phi bounds across features, profiles, cycle times
// ==================================================================

using PhiParam =
    std::tuple<StallFeature, std::string, Cycles>;

class PhiBoundsSweep : public ::testing::TestWithParam<PhiParam>
{
};

TEST_P(PhiBoundsSweep, MeasuredPhiWithinBounds)
{
    const auto [feature, profile, mu] = GetParam();
    PhiExperiment exp;
    exp.feature = feature;
    exp.cycleTime = mu;
    exp.refs = 12000;
    const auto result = measurePhi(exp, profile);
    const PhiBounds bounds = phiBounds(feature, 8.0);
    EXPECT_GE(result.phi, bounds.min - 1e-9);
    EXPECT_LE(result.phi, bounds.max + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    FeatureProfileMu, PhiBoundsSweep,
    ::testing::Combine(
        ::testing::Values(StallFeature::BL, StallFeature::BNL1,
                          StallFeature::BNL2, StallFeature::BNL3),
        ::testing::Values("nasa7", "ear", "hydro2d"),
        ::testing::Values<Cycles>(4, 16, 40)),
    [](const auto &info) {
        return std::string(
                   stallFeatureName(std::get<0>(info.param))) +
               "_" + std::get<1>(info.param) + "_mu" +
               std::to_string(std::get<2>(info.param));
    });

// ==================================================================
// Cache statistics invariants across geometries and policies
// ==================================================================

using CacheParam = std::tuple<std::uint64_t /*size*/,
                              std::uint32_t /*assoc*/,
                              std::uint32_t /*line*/,
                              ReplacementKind, WriteMissPolicy>;

class CacheInvariantSweep
    : public ::testing::TestWithParam<CacheParam>
{
};

TEST_P(CacheInvariantSweep, CountersStayConsistent)
{
    const auto [size, assoc, line, repl, wmiss] = GetParam();
    CacheConfig config;
    config.sizeBytes = size;
    config.assoc = assoc;
    config.lineBytes = line;
    config.replacement = repl;
    config.writeMiss = wmiss;
    SetAssocCache cache(config);

    WorkingSetGenerator::Config ws;
    ws.stackDepth = 300;
    ws.decay = 0.98;
    ws.coldFraction = 0.03;
    ws.storeFraction = 0.35;
    WorkingSetGenerator gen(ws, Rng(size ^ assoc ^ line));
    WorkloadProfile profile(line);

    for (int i = 0; i < 20000; ++i) {
        const MemoryReference ref = *gen.next();
        cache.access(ref);
        profile.add(ref);
    }

    const CacheStats &s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, s.accesses);
    EXPECT_EQ(s.loads + s.stores, s.accesses);
    EXPECT_EQ(s.loadMisses + s.storeMisses, s.misses);
    EXPECT_LE(s.fills, s.misses);
    EXPECT_LE(s.writebacks, s.fills);
    // Every distinct line misses at least once: the compulsory
    // misses bound the total from below.
    EXPECT_GE(s.misses, profile.footprintBlocks());
    EXPECT_GE(s.instructions, s.accesses);
    if (wmiss == WriteMissPolicy::WriteAllocate) {
        EXPECT_EQ(s.fills, s.misses);
        EXPECT_EQ(s.storesToMemory, 0u);
    } else {
        EXPECT_EQ(s.fills, s.loadMisses);
        EXPECT_EQ(s.storesToMemory, s.storeMisses);
    }
}

TEST_P(CacheInvariantSweep, OccupancyNeverExceedsCapacity)
{
    const auto [size, assoc, line, repl, wmiss] = GetParam();
    CacheConfig config;
    config.sizeBytes = size;
    config.assoc = assoc;
    config.lineBytes = line;
    config.replacement = repl;
    config.writeMiss = wmiss;
    SetAssocCache cache(config);

    Rng rng(7 * size + assoc);
    std::uint64_t resident_upper_bound = 0;
    for (int i = 0; i < 5000; ++i) {
        MemoryReference ref;
        ref.addr = rng.nextBelow(1 << 20) & ~3ull;
        ref.size = 4;
        ref.kind =
            rng.nextBool(0.3) ? RefKind::Store : RefKind::Load;
        const auto out = cache.access(ref);
        resident_upper_bound += out.fill;
        resident_upper_bound -= 0; // fills never exceed misses
    }
    // Invalidate everything: the dirty count cannot exceed the
    // number of lines the cache can hold.
    EXPECT_LE(cache.invalidateAll(), config.numLines());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheInvariantSweep,
    ::testing::Combine(
        ::testing::Values<std::uint64_t>(1024, 8192, 65536),
        ::testing::Values<std::uint32_t>(1, 2, 4),
        ::testing::Values<std::uint32_t>(16, 32, 64),
        ::testing::Values(ReplacementKind::LRU,
                          ReplacementKind::FIFO,
                          ReplacementKind::Random,
                          ReplacementKind::TreePLRU),
        ::testing::Values(WriteMissPolicy::WriteAllocate,
                          WriteMissPolicy::WriteAround)));

// ==================================================================
// LRU conformance against a reference stack model
// ==================================================================

class LruConformance
    : public ::testing::TestWithParam<std::uint32_t /*assoc*/>
{
};

TEST_P(LruConformance, MatchesReferenceListModel)
{
    const std::uint32_t assoc = GetParam();
    CacheConfig config;
    config.sizeBytes = static_cast<std::uint64_t>(assoc) * 32;
    config.assoc = assoc; // a single set
    config.lineBytes = 32;
    SetAssocCache cache(config);

    // Reference model: a plain most-recent-first list.
    std::list<Addr> reference;
    Rng rng(assoc * 101);

    for (int i = 0; i < 4000; ++i) {
        const Addr line = rng.nextBelow(assoc * 3) * 32;
        const bool model_hit =
            std::find(reference.begin(), reference.end(), line) !=
            reference.end();
        reference.remove(line);
        reference.push_front(line);
        if (reference.size() > assoc)
            reference.pop_back();

        MemoryReference ref;
        ref.addr = line;
        ref.size = 4;
        const auto out = cache.access(ref);
        ASSERT_EQ(out.hit, model_hit) << "step " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Assocs, LruConformance,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ==================================================================
// Eq. 19 / Smith agreement on randomized miss-ratio tables
// ==================================================================

class SmithAgreementRandom
    : public ::testing::TestWithParam<std::uint64_t /*seed*/>
{
};

TEST_P(SmithAgreementRandom, ObjectivesAgreeOnRandomTables)
{
    Rng rng(GetParam());
    // Random monotone-decreasing MR(L) with a random flattening
    // tail, random latency and bus width.
    std::vector<LinePoint> points;
    double mr = 0.02 + rng.nextDouble() * 0.15;
    for (std::uint32_t line : {8u, 16u, 32u, 64u, 128u}) {
        points.push_back(LinePoint{line, mr});
        const double factor = 0.45 + rng.nextDouble() * 0.5;
        mr *= factor;
    }
    const MissRatioTable table("random", points);

    LineDelayModel model;
    model.c = 2.0 + rng.nextDouble() * 20.0;
    model.busWidth = rng.nextBool(0.5) ? 4.0 : 8.0;

    for (int i = 0; i < 24; ++i) {
        model.beta = 0.25 + rng.nextDouble() * 10.0;
        const auto ours = tradeoffOptimalLine(table, model, 8);
        const auto smiths = smithOptimalLine(table, model);
        const double o1 =
            model.smithObjective(table.missRatio(ours), ours);
        const double o2 =
            model.smithObjective(table.missRatio(smiths), smiths);
        EXPECT_NEAR(o1, o2, 1e-9)
            << "beta = " << model.beta << " c = " << model.c;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmithAgreementRandom,
                         ::testing::Range<std::uint64_t>(1, 21));

// ==================================================================
// Memory-scheduler invariants under random operation streams
// ==================================================================

class SchedulerRandomOps
    : public ::testing::TestWithParam<std::uint64_t /*seed*/>
{
};

TEST_P(SchedulerRandomOps, GrantsAreOrderedAndExclusive)
{
    Rng rng(GetParam());
    MemoryConfig config;
    config.busWidthBytes = 4;
    config.cycleTime = 1 + rng.nextBelow(12);
    MemoryTiming timing(config);
    WriteBufferConfig wbuf;
    wbuf.depth = static_cast<std::uint32_t>(rng.nextBelow(5));
    wbuf.readBypass = rng.nextBool(0.7);
    MemoryScheduler scheduler(timing, wbuf);

    Cycles now = 0;
    Cycles last_read_end = 0;
    for (int i = 0; i < 500; ++i) {
        now += rng.nextBelow(40);
        if (rng.nextBool(0.5)) {
            const ReadGrant grant = scheduler.requestRead(now, 32);
            // Reads never start before they are requested and
            // never overlap the previous read.
            ASSERT_GE(grant.start, now);
            ASSERT_GE(grant.start, last_read_end);
            ASSERT_EQ(grant.busWait, grant.start - now);
            last_read_end =
                grant.start + timing.lineTransferTime(32);
            ASSERT_EQ(scheduler.busyUntil(), last_read_end);
        } else {
            const Cycles resume = scheduler.postWrite(
                now, rng.nextBool(0.5) ? 4 : 32);
            // The CPU never resumes in the past.
            ASSERT_GE(resume, now);
            if (wbuf.depth > 0) {
                ASSERT_LE(scheduler.pendingWrites(),
                          wbuf.depth);
            }
        }
    }
    // Draining everything terminates and leaves no pending work.
    scheduler.drainAllAfter(now);
    EXPECT_EQ(scheduler.pendingWrites(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerRandomOps,
                         ::testing::Range<std::uint64_t>(100, 116));

// ==================================================================
// Pipelined exactness across issue intervals q (Eq. 9)
// ==================================================================

using PipeParam = std::tuple<Cycles /*mu*/, Cycles /*q*/>;

class PipelinedExactness
    : public ::testing::TestWithParam<PipeParam>
{
};

TEST_P(PipelinedExactness, EngineMatchesEq9ForEveryQ)
{
    const auto [mu, q] = GetParam();
    MemoryConfig mem;
    mem.busWidthBytes = 4;
    mem.cycleTime = mu;
    mem.pipelined = true;
    mem.pipelineInterval = q;
    if (q > mu) {
        // No such pipeline: the memory refuses it, naming q.
        EXPECT_TRUE(isStatus(mem.validate(), ErrorCode::InvalidArgument,
                             "pipeline interval q = " + std::to_string(q)));
        return;
    }
    CacheConfig cache;
    cache.sizeBytes = 8 * 1024;
    cache.assoc = 2;
    cache.lineBytes = 32;
    CpuConfig cpu;
    cpu.feature = StallFeature::FS;
    TimingEngine engine(cache, mem, WriteBufferConfig{0, true},
                        cpu);
    auto workload = Spec92Profile::make("swm256", 61);
    const auto stats = engine.run(*workload, 20000);
    const auto &cs = engine.cacheStats();

    const std::uint64_t mu_p = mu + q * (8 - 1);
    const std::uint64_t expected =
        (cs.instructions - cs.fills) + cs.fills * mu_p +
        cs.writebacks * mu_p;
    EXPECT_EQ(stats.cycles, expected);
}

INSTANTIATE_TEST_SUITE_P(
    MuQ, PipelinedExactness,
    ::testing::Combine(::testing::Values<Cycles>(2, 4, 8, 16),
                       ::testing::Values<Cycles>(1, 2, 4, 8)));

// ==================================================================
// Engine monotonicity across the feature ladder, per profile
// ==================================================================

class FeatureLadder
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FeatureLadder, CyclesDecreaseDownTheLadder)
{
    CacheConfig cache;
    cache.sizeBytes = 8 * 1024;
    cache.assoc = 2;
    cache.lineBytes = 32;
    MemoryConfig mem;
    mem.busWidthBytes = 4;
    mem.cycleTime = 10;

    Cycles previous = ~0ull;
    for (StallFeature f :
         {StallFeature::FS, StallFeature::BL, StallFeature::BNL1,
          StallFeature::BNL2, StallFeature::BNL3,
          StallFeature::NB}) {
        CpuConfig cpu;
        cpu.feature = f;
        cpu.suppressFlushTraffic = true;
        TimingEngine engine(cache, mem,
                            WriteBufferConfig{16, true}, cpu);
        auto workload = Spec92Profile::make(GetParam(), 55);
        const auto cycles = engine.run(*workload, 20000).cycles;
        EXPECT_LE(cycles, previous) << stallFeatureName(f);
        previous = cycles;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, FeatureLadder,
    ::testing::Values("nasa7", "swm256", "wave5", "ear", "doduc",
                      "hydro2d"));

// ==================================================================
// LRU inclusion across the geometry grid (stack engine)
// ==================================================================

class LruInclusion
    : public ::testing::TestWithParam<std::uint64_t /*seed*/>
{
};

TEST_P(LruInclusion, HitsNondecreasingInAssocAtFixedSets)
{
    // Mattson inclusion: at a fixed set count, a wider LRU cache
    // holds a superset of a narrower one at every instant, so
    // hits must be monotone in associativity.  This is exact for
    // ANY workload, so use a fresh random one per seed.
    WorkingSetGenerator::Config ws;
    Rng rng(GetParam() * 7919 + 5);
    ws.stackDepth = 16 + rng.nextBelow(600);
    ws.decay = 0.9 + rng.nextDouble() * 0.09;
    ws.coldFraction = rng.nextDouble() * 0.1;
    ws.storeFraction = rng.nextDouble() * 0.5;
    WorkingSetGenerator gen(ws, rng.fork());

    GeometryGrid grid;
    grid.setCounts = {1, 8, 64};
    grid.assocs = {1, 2, 4, 8, 16};
    const GeometryHitSurface surface =
        runStackSim(grid, gen, 6000);

    for (std::uint64_t sets : grid.setCounts) {
        std::uint64_t previous = 0;
        for (std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
            const std::uint64_t hits =
                surface.stats(sets, assoc).hits;
            EXPECT_GE(hits, previous)
                << sets << " sets, " << assoc << "-way";
            previous = hits;
        }
    }
}

TEST_P(LruInclusion, HitsNondecreasingInSizeAtFixedAssoc)
{
    // Set refinement: with power-of-two set counts and the set
    // picked by the low bits of the line index, a set at 2S holds
    // a subset of the lines of one set at S.  Since a reference's
    // last use, no more distinct lines of its set can have been
    // touched at 2S than at S, so its LRU distance can only fall
    // as sets split, and every hit at (S, A) is a hit at (2S, A).
    // That holds for ANY workload, write policy and warm-up window
    // (the stack engine's early stop rests on it), so use a fresh
    // random workload per seed.
    WorkingSetGenerator::Config ws;
    Rng rng(GetParam() * 131 + 17);
    ws.stackDepth = 16 + rng.nextBelow(600);
    ws.decay = 0.9 + rng.nextDouble() * 0.09;
    ws.coldFraction = rng.nextDouble() * 0.1;
    ws.storeFraction = rng.nextDouble() * 0.5;
    const std::uint64_t warmup = rng.nextBelow(2) * 1500;
    WorkingSetGenerator gen(ws, rng.fork());

    for (WritePolicy write :
         {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
        GeometryGrid grid;
        grid.setCounts = {1, 2, 8, 32, 128, 512};
        grid.assocs = {1, 2, 4, 8};
        grid.write = write;
        const GeometryHitSurface surface =
            runStackSim(grid, gen, 6000, warmup);

        for (std::uint32_t assoc : grid.assocs) {
            std::uint64_t previous = 0;
            for (std::uint64_t sets : grid.setCounts) {
                const std::uint64_t hits =
                    surface.stats(sets, assoc).hits;
                EXPECT_GE(hits, previous)
                    << sets << " sets, " << assoc << "-way, "
                    << writePolicyName(write);
                previous = hits;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruInclusion,
                         ::testing::Range<std::uint64_t>(1, 13));

// ==================================================================
// fillBatch == repeated next() for every trace source
// ==================================================================

struct BatchCase
{
    const char *name;
    std::function<std::unique_ptr<TraceSource>()> make;

    // Without it gtest prints the struct's bytes, heap addresses
    // included, into every ctest name.
    friend void
    PrintTo(const BatchCase &c, std::ostream *os)
    {
        *os << c.name;
    }
};

std::unique_ptr<TraceSource>
batchWorkingSet(std::uint64_t seed)
{
    WorkingSetGenerator::Config ws;
    ws.stackDepth = 100;
    ws.storeFraction = 0.4;
    return std::make_unique<WorkingSetGenerator>(ws, Rng(seed));
}

std::vector<MemoryReference>
makeFiniteRefs(std::size_t count)
{
    std::vector<MemoryReference> refs;
    Rng rng(count);
    for (std::size_t i = 0; i < count; ++i) {
        MemoryReference ref;
        ref.size = 4;
        ref.addr = alignDown(rng.nextBelow(1 << 16), ref.size);
        ref.gap =
            static_cast<std::uint32_t>(rng.nextBelow(4));
        ref.kind =
            rng.nextBool(0.3) ? RefKind::Store : RefKind::Load;
        refs.push_back(ref);
    }
    return refs;
}

class BatchEquivalence : public ::testing::TestWithParam<BatchCase>
{
  protected:
    static void
    expectSameRef(const MemoryReference &a,
                  const MemoryReference &b, std::size_t at)
    {
        ASSERT_EQ(a.addr, b.addr) << "ref " << at;
        ASSERT_EQ(a.size, b.size) << "ref " << at;
        ASSERT_EQ(a.kind, b.kind) << "ref " << at;
        ASSERT_EQ(a.gap, b.gap) << "ref " << at;
    }
};

TEST_P(BatchEquivalence, FillBatchMatchesNext)
{
    constexpr std::size_t kRefs = 1800;
    // Reference stream: one next() at a time.
    auto by_next = GetParam().make();
    std::vector<MemoryReference> expected;
    for (std::size_t i = 0; i < kRefs; ++i) {
        const auto ref = by_next->next();
        if (!ref)
            break;
        expected.push_back(*ref);
    }

    for (std::size_t batch : {std::size_t{1}, std::size_t{3},
                              std::size_t{64}, std::size_t{1000}}) {
        auto by_batch = GetParam().make();
        std::vector<MemoryReference> got(kRefs);
        std::size_t filled = 0;
        while (filled < kRefs) {
            const std::size_t want =
                std::min(batch, kRefs - filled);
            const std::size_t n =
                by_batch->fillBatch(got.data() + filled, want);
            filled += n;
            if (n < want) // exhausted exactly like next()
                break;
        }
        got.resize(filled);
        ASSERT_EQ(got.size(), expected.size())
            << GetParam().name << " batch " << batch;
        for (std::size_t i = 0; i < got.size(); ++i)
            expectSameRef(got[i], expected[i], i);
    }
}

TEST_P(BatchEquivalence, MixedNextAndBatchMatches)
{
    constexpr std::size_t kRefs = 1200;
    auto by_next = GetParam().make();
    std::vector<MemoryReference> expected;
    for (std::size_t i = 0; i < kRefs; ++i) {
        const auto ref = by_next->next();
        if (!ref)
            break;
        expected.push_back(*ref);
    }

    // Alternate single next() calls with odd-sized batches on the
    // SAME source: the contract allows mixing freely.
    auto mixed = GetParam().make();
    std::vector<MemoryReference> got;
    MemoryReference buffer[37];
    bool exhausted = false;
    while (got.size() < kRefs && !exhausted) {
        if (got.size() % 3 == 0) {
            const auto ref = mixed->next();
            if (!ref) {
                exhausted = true;
                break;
            }
            got.push_back(*ref);
        } else {
            const std::size_t want = std::min<std::size_t>(
                37, kRefs - got.size());
            const std::size_t n = mixed->fillBatch(buffer, want);
            got.insert(got.end(), buffer, buffer + n);
            exhausted = n < want;
        }
    }
    if (got.size() > expected.size())
        got.resize(expected.size());
    ASSERT_EQ(got.size(), expected.size()) << GetParam().name;
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameRef(got[i], expected[i], i);
}

INSTANTIATE_TEST_SUITE_P(
    Sources, BatchEquivalence,
    ::testing::Values(
        BatchCase{"trace",
                  [] {
                      return std::make_unique<Trace>(
                          makeFiniteRefs(700));
                  }},
        BatchCase{"shared_trace",
                  [] {
                      return std::make_unique<SharedTraceCursor>(
                          std::make_shared<const Trace>(
                              makeFiniteRefs(700)));
                  }},
        BatchCase{"stride",
                  [] {
                      StrideGenerator::Config cfg;
                      cfg.elements = 500;
                      cfg.strideBytes = 16;
                      return std::make_unique<StrideGenerator>(
                          cfg, Rng(3));
                  }},
        BatchCase{"loop_nest",
                  [] {
                      LoopNestGenerator::Config cfg;
                      cfg.rows = 20;
                      cfg.cols = 17;
                      return std::make_unique<LoopNestGenerator>(
                          cfg, Rng(4));
                  }},
        BatchCase{"pointer_chase",
                  [] {
                      PointerChaseGenerator::Config cfg;
                      cfg.nodes = 500;
                      return std::make_unique<
                          PointerChaseGenerator>(cfg, Rng(5));
                  }},
        BatchCase{"working_set", [] { return batchWorkingSet(6); }},
        BatchCase{"phase_mix",
                  [] {
                      std::vector<PhaseMixGenerator::Phase> phases;
                      phases.push_back(PhaseMixGenerator::Phase{
                          batchWorkingSet(7), 90});
                      phases.push_back(PhaseMixGenerator::Phase{
                          batchWorkingSet(8), 41});
                      return std::make_unique<PhaseMixGenerator>(
                          std::move(phases));
                  }},
        BatchCase{"phase_mix_finite",
                  [] {
                      // Finite children: exercises the quota /
                      // exhaustion interplay in batched mode.
                      std::vector<PhaseMixGenerator::Phase> phases;
                      phases.push_back(PhaseMixGenerator::Phase{
                          std::make_unique<Trace>(
                              makeFiniteRefs(130)),
                          40});
                      phases.push_back(PhaseMixGenerator::Phase{
                          std::make_unique<Trace>(
                              makeFiniteRefs(57)),
                          25});
                      return std::make_unique<PhaseMixGenerator>(
                          std::move(phases));
                  }},
        BatchCase{"ifetch",
                  [] {
                      return std::make_unique<IFetchGenerator>(
                          IFetchConfig{}, Rng(14));
                  }},
        BatchCase{"ifetch_interleaved",
                  [] {
                      return std::make_unique<IFetchInterleaver>(
                          batchWorkingSet(15), IFetchConfig{},
                          Rng(16));
                  }},
        BatchCase{"spec92",
                  [] {
                      return Spec92Profile::make("nasa7", 21);
                  }},
        // The other five profiles open on differently configured
        // generators (doduc's chase, hydro2d's row sweep).
        BatchCase{"spec92_doduc",
                  [] { return Spec92Profile::make("doduc", 26); }},
        BatchCase{"spec92_ear",
                  [] { return Spec92Profile::make("ear", 27); }},
        BatchCase{"spec92_hydro2d",
                  [] {
                      return Spec92Profile::make("hydro2d", 28);
                  }},
        BatchCase{"spec92_swm256",
                  [] {
                      return Spec92Profile::make("swm256", 29);
                  }},
        BatchCase{"spec92_wave5",
                  [] { return Spec92Profile::make("wave5", 30); }},
        BatchCase{"short_levy",
                  [] { return ShortLevyWorkload::make(22); }},
        BatchCase{"ycsb_a",
                  [] {
                      YcsbWorkload::Config cfg;
                      cfg.mix = YcsbWorkload::Mix::A;
                      cfg.records = 5000;
                      return std::make_unique<YcsbWorkload>(
                          cfg, Rng(23));
                  }},
        BatchCase{"ycsb_e",
                  [] {
                      // Mix E exercises scans and keyspace growth.
                      YcsbWorkload::Config cfg;
                      cfg.mix = YcsbWorkload::Mix::E;
                      cfg.records = 5000;
                      return std::make_unique<YcsbWorkload>(
                          cfg, Rng(24));
                  }},
        BatchCase{"ycsb_d",
                  [] {
                      // Mix D reads the latest inserts.
                      YcsbWorkload::Config cfg;
                      cfg.mix = YcsbWorkload::Mix::D;
                      cfg.records = 5000;
                      return std::make_unique<YcsbWorkload>(
                          cfg, Rng(31));
                  }},
        BatchCase{"ycsb_f",
                  [] {
                      // Mix F's read-modify-writes.
                      YcsbWorkload::Config cfg;
                      cfg.mix = YcsbWorkload::Mix::F;
                      cfg.records = 5000;
                      return std::make_unique<YcsbWorkload>(
                          cfg, Rng(32));
                  }},
        BatchCase{"reuse_dist",
                  [] {
                      ReuseDistanceWorkload::Config cfg;
                      cfg.profile =
                          ReuseProfile::geometric(64, 0.9, 0.05);
                      return std::make_unique<
                          ReuseDistanceWorkload>(cfg, Rng(25));
                  }}),
    [](const auto &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace uatm
