/**
 * @file
 * Unit and property tests for the synthetic workload generators.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "trace/generators.hh"
#include "trace/ifetch.hh"
#include "trace/reuse_distance.hh"
#include "trace/trace_stats.hh"
#include "trace/transform.hh"
#include "trace/ycsb.hh"

namespace uatm {
namespace {

// ---------------------------------------------------------------- GapModel

TEST(GapModel, SampleWithinBounds)
{
    Rng rng(1);
    GapModel gap{2, 5};
    for (int i = 0; i < 1000; ++i) {
        const auto g = gap.sample(rng);
        EXPECT_GE(g, 2u);
        EXPECT_LE(g, 5u);
    }
}

TEST(GapModel, DegenerateRangeIsConstant)
{
    Rng rng(1);
    GapModel gap{3, 3};
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(gap.sample(rng), 3u);
}

// ---------------------------------------------------------- StrideGenerator

TEST(StrideGenerator, WalksWithFixedStride)
{
    StrideGenerator::Config config;
    config.base = 0x1000;
    config.elements = 8;
    config.elemSize = 8;
    config.strideBytes = 8;
    config.storeFraction = 0.0;
    config.gap = {1, 1};
    StrideGenerator gen(config, Rng(1));

    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t i = 0; i < 8; ++i) {
            const auto ref = gen.next();
            ASSERT_TRUE(ref.has_value());
            EXPECT_EQ(ref->addr, 0x1000 + 8 * i);
            EXPECT_EQ(ref->kind, RefKind::Load);
        }
    }
}

TEST(StrideGenerator, ResetReplaysIdentically)
{
    StrideGenerator::Config config;
    config.storeFraction = 0.5;
    StrideGenerator gen(config, Rng(7));
    const auto first = gen.drain(50);
    gen.reset();
    const auto second = gen.drain(50);
    EXPECT_EQ(first, second);
}

TEST(StrideGenerator, StoreFractionRespected)
{
    StrideGenerator::Config config;
    config.storeFraction = 0.4;
    StrideGenerator gen(config, Rng(3));
    int stores = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        stores += gen.next()->kind == RefKind::Store;
    EXPECT_NEAR(static_cast<double>(stores) / n, 0.4, 0.03);
}

TEST(StrideGenerator, AddressesAlignedToElemSize)
{
    StrideGenerator::Config config;
    config.base = 0x1001; // deliberately misaligned base
    config.elemSize = 8;
    StrideGenerator gen(config, Rng(5));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(gen.next()->addr % 8, 0u);
}

// --------------------------------------------------------- LoopNestGenerator

TEST(LoopNestGenerator, EmitsThreeLegPattern)
{
    LoopNestGenerator::Config config;
    config.rows = 2;
    config.cols = 2;
    config.gap = {1, 1};
    LoopNestGenerator gen(config, Rng(1));

    const auto refs = gen.drain(6);
    ASSERT_EQ(refs.size(), 6u);
    EXPECT_EQ(refs[0].kind, RefKind::Load);  // A
    EXPECT_EQ(refs[1].kind, RefKind::Load);  // B
    EXPECT_EQ(refs[2].kind, RefKind::Store); // C
    EXPECT_EQ(refs[3].kind, RefKind::Load);
}

TEST(LoopNestGenerator, RowMajorIsUnitStridePerArray)
{
    LoopNestGenerator::Config config;
    config.rows = 4;
    config.cols = 4;
    config.elemSize = 8;
    config.rowMajor = true;
    LoopNestGenerator gen(config, Rng(1));
    const auto refs = gen.drain(9); // three iterations
    // A-leg addresses of consecutive iterations differ by elemSize.
    EXPECT_EQ(refs[3].addr - refs[0].addr, 8u);
    EXPECT_EQ(refs[6].addr - refs[3].addr, 8u);
}

TEST(LoopNestGenerator, ColumnMajorHasLargeStride)
{
    LoopNestGenerator::Config config;
    config.rows = 8;
    config.cols = 8;
    config.elemSize = 8;
    config.rowMajor = false;
    LoopNestGenerator gen(config, Rng(1));
    const auto refs = gen.drain(6);
    // Column-major: consecutive iterations jump by rows*elemSize.
    EXPECT_EQ(refs[3].addr - refs[0].addr, 64u);
}

TEST(LoopNestGenerator, WrapsAroundIterationSpace)
{
    LoopNestGenerator::Config config;
    config.rows = 2;
    config.cols = 2;
    LoopNestGenerator gen(config, Rng(1));
    const auto refs = gen.drain(15); // > one full 2x2x3 sweep
    EXPECT_EQ(refs[12].addr, refs[0].addr);
}

// ------------------------------------------------------ PointerChaseGenerator

TEST(PointerChaseGenerator, VisitsEveryNode)
{
    PointerChaseGenerator::Config config;
    config.nodes = 64;
    config.nodeSize = 64;
    config.fieldsPerVisit = 0; // one access per node
    config.storeFraction = 0.0;
    PointerChaseGenerator gen(config, Rng(1));

    std::set<Addr> nodes;
    for (int i = 0; i < 64; ++i)
        nodes.insert(alignDown(gen.next()->addr, 64));
    // Sattolo permutation is a single full cycle.
    EXPECT_EQ(nodes.size(), 64u);
}

TEST(PointerChaseGenerator, StaysInPool)
{
    PointerChaseGenerator::Config config;
    config.base = 0x10000;
    config.nodes = 16;
    config.nodeSize = 64;
    PointerChaseGenerator gen(config, Rng(2));
    for (int i = 0; i < 500; ++i) {
        const Addr addr = gen.next()->addr;
        EXPECT_GE(addr, 0x10000u);
        EXPECT_LT(addr, 0x10000u + 16 * 64);
    }
}

TEST(PointerChaseGenerator, ResetReplays)
{
    PointerChaseGenerator::Config config;
    PointerChaseGenerator gen(config, Rng(9));
    const auto first = gen.drain(100);
    gen.reset();
    EXPECT_EQ(gen.drain(100), first);
}

// ------------------------------------------------------- WorkingSetGenerator

TEST(WorkingSetGenerator, MostlyReusesHotSet)
{
    WorkingSetGenerator::Config config;
    config.stackDepth = 64;
    config.decay = 0.9;
    config.coldFraction = 0.01;
    WorkingSetGenerator gen(config, Rng(1));

    std::unordered_set<Addr> blocks;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        blocks.insert(alignDown(gen.next()->addr, config.blockBytes));
    // With 1% cold references the footprint stays near the stack
    // depth plus the cold tail, far below n.
    EXPECT_LT(blocks.size(), 300u);
}

TEST(WorkingSetGenerator, ColdFractionGrowsFootprint)
{
    auto footprint = [](double cold) {
        WorkingSetGenerator::Config config;
        config.coldFraction = cold;
        WorkingSetGenerator gen(config, Rng(4));
        std::unordered_set<Addr> blocks;
        for (int i = 0; i < 4000; ++i)
            blocks.insert(
                alignDown(gen.next()->addr, config.blockBytes));
        return blocks.size();
    };
    EXPECT_GT(footprint(0.2), footprint(0.01));
}

TEST(WorkingSetGenerator, ResetReplays)
{
    WorkingSetGenerator::Config config;
    WorkingSetGenerator gen(config, Rng(6));
    const auto first = gen.drain(200);
    gen.reset();
    EXPECT_EQ(gen.drain(200), first);
}

TEST(WorkingSetGenerator, AccessesStayInsideBlock)
{
    WorkingSetGenerator::Config config;
    config.blockBytes = 32;
    config.accessSize = 4;
    WorkingSetGenerator gen(config, Rng(8));
    for (int i = 0; i < 1000; ++i) {
        const auto ref = gen.next();
        EXPECT_EQ(ref->addr % 4, 0u);
    }
}

// --------------------------------------------------------- PhaseMixGenerator

TEST(PhaseMixGenerator, AlternatesPhases)
{
    StrideGenerator::Config a;
    a.base = 0x1000;
    a.storeFraction = 0.0;
    StrideGenerator::Config b;
    b.base = 0x100000;
    b.storeFraction = 0.0;

    std::vector<PhaseMixGenerator::Phase> phases;
    phases.push_back(PhaseMixGenerator::Phase{
        std::make_unique<StrideGenerator>(a, Rng(1)), 3});
    phases.push_back(PhaseMixGenerator::Phase{
        std::make_unique<StrideGenerator>(b, Rng(2)), 2});
    PhaseMixGenerator mix(std::move(phases));

    const auto refs = mix.drain(10);
    ASSERT_EQ(refs.size(), 10u);
    // 3 from A, 2 from B, 3 from A, 2 from B.
    EXPECT_LT(refs[0].addr, 0x100000u);
    EXPECT_LT(refs[2].addr, 0x100000u);
    EXPECT_GE(refs[3].addr, 0x100000u);
    EXPECT_GE(refs[4].addr, 0x100000u);
    EXPECT_LT(refs[5].addr, 0x100000u);
}

TEST(PhaseMixGenerator, FiniteChildrenExhaust)
{
    auto trace = std::make_unique<Trace>();
    trace->append(MemoryReference{0x10, 0, 4, RefKind::Load});
    trace->append(MemoryReference{0x20, 0, 4, RefKind::Load});

    std::vector<PhaseMixGenerator::Phase> phases;
    phases.push_back(
        PhaseMixGenerator::Phase{std::move(trace), 100});
    PhaseMixGenerator mix(std::move(phases));
    EXPECT_EQ(mix.drain(50).size(), 2u);
    EXPECT_FALSE(mix.next().has_value());
}

// ------------------------------------------------------------ Spec92Profile

TEST(Spec92Profile, HasSixNames)
{
    EXPECT_EQ(Spec92Profile::names().size(), 6u);
}

TEST(Spec92Profile, UnknownNameIsFatal)
{
    EXPECT_EXIT(Spec92Profile::make("mcf", 1),
                ::testing::ExitedWithCode(EXIT_FAILURE), "unknown");
}

TEST(Spec92Profile, AllProfilesProduceReferences)
{
    for (const auto &name : Spec92Profile::names()) {
        auto gen = Spec92Profile::make(name, 1234);
        const auto refs = gen->drain(1000);
        EXPECT_EQ(refs.size(), 1000u) << name;
    }
}

TEST(Spec92Profile, DeterministicAcrossConstruction)
{
    auto a = Spec92Profile::make("nasa7", 99);
    auto b = Spec92Profile::make("nasa7", 99);
    EXPECT_EQ(a->drain(500), b->drain(500));
}

TEST(Spec92Profile, SeedsChangeTheStream)
{
    auto a = Spec92Profile::make("doduc", 1);
    auto b = Spec92Profile::make("doduc", 2);
    EXPECT_NE(a->drain(500), b->drain(500));
}

// ------------------------------------------------------------ reset()
//
// reset() is how runCacheSim, runStackSim and TimingEngine::run
// rewind a source, so every source type must replay its stream
// from the very beginning after one, however far it was drained
// (for a finite source, past its end).

struct ResetCase
{
    std::string name;
    std::function<std::unique_ptr<TraceSource>()> make;

    friend void
    PrintTo(const ResetCase &c, std::ostream *os)
    {
        *os << c.name;
    }
};

/** An ifetch interleave of the ear profile, as WorkloadSpec builds
 *  one for {"method": "spec92", "ifetch": true}. */
std::unique_ptr<TraceSource>
interleavedEar()
{
    return std::make_unique<IFetchInterleaver>(
        Spec92Profile::make("ear", 13), IFetchConfig{},
        Rng(13 ^ 0xf00d));
}

/** 500 random 8-byte references: a finite stream. */
std::vector<MemoryReference>
finiteRefs()
{
    std::vector<MemoryReference> refs;
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        MemoryReference ref;
        ref.addr = 8 * rng.nextBelow(4096);
        ref.size = 8;
        ref.gap = static_cast<std::uint32_t>(rng.nextBelow(4));
        refs.push_back(ref);
    }
    return refs;
}

std::vector<ResetCase>
resetCases()
{
    std::vector<ResetCase> cases;
    cases.push_back({"trace", [] {
        return std::make_unique<Trace>(finiteRefs());
    }});
    cases.push_back({"shared_trace", [] {
        return std::make_unique<SharedTraceCursor>(
            std::make_shared<const Trace>(finiteRefs()));
    }});
    cases.push_back({"stride", [] {
        return std::make_unique<StrideGenerator>(
            StrideGenerator::Config{}, Rng(5));
    }});
    cases.push_back({"loop_nest", [] {
        return std::make_unique<LoopNestGenerator>(
            LoopNestGenerator::Config{}, Rng(5));
    }});
    cases.push_back({"pointer_chase", [] {
        return std::make_unique<PointerChaseGenerator>(
            PointerChaseGenerator::Config{}, Rng(5));
    }});
    cases.push_back({"working_set", [] {
        return std::make_unique<WorkingSetGenerator>(
            WorkingSetGenerator::Config{}, Rng(5));
    }});
    cases.push_back({"short_levy",
                     [] { return ShortLevyWorkload::make(5); }});
    for (const auto &profile : Spec92Profile::names()) {
        cases.push_back({"spec92_" + profile, [profile] {
            return Spec92Profile::make(profile, 5);
        }});
    }
    for (auto mix : {YcsbWorkload::Mix::A, YcsbWorkload::Mix::D,
                     YcsbWorkload::Mix::E, YcsbWorkload::Mix::F}) {
        cases.push_back({std::string("ycsb_") +
                             YcsbWorkload::mixName(mix),
                         [mix] {
            YcsbWorkload::Config ycsb;
            ycsb.mix = mix;
            ycsb.records = 4000;
            return std::make_unique<YcsbWorkload>(ycsb, Rng(5));
        }});
    }
    cases.push_back({"reuse_dist", [] {
        ReuseDistanceWorkload::Config reuse;
        reuse.profile = ReuseProfile::geometric(48, 0.92, 0.04);
        return std::make_unique<ReuseDistanceWorkload>(reuse,
                                                       Rng(5));
    }});
    cases.push_back({"ifetch", [] {
        return std::make_unique<IFetchGenerator>(IFetchConfig{},
                                                 Rng(5));
    }});
    cases.push_back({"ifetch_interleaved", interleavedEar});
    cases.push_back({"offset", [] {
        return std::make_unique<OffsetSource>(interleavedEar(),
                                              0x1000);
    }});
    cases.push_back({"kind_filter", [] {
        return std::make_unique<KindFilterSource>(
            interleavedEar(), true, true, false);
    }});
    cases.push_back({"sample", [] {
        return std::make_unique<SampleSource>(
            Spec92Profile::make("doduc", 5), 3);
    }});
    cases.push_back({"time_slice", [] {
        std::vector<std::unique_ptr<TraceSource>> programs;
        programs.push_back(Spec92Profile::make("nasa7", 5));
        programs.push_back(Spec92Profile::make("doduc", 6));
        return std::make_unique<TimeSliceSource>(
            std::move(programs), 70);
    }});
    return cases;
}

class ResetRewinds : public ::testing::TestWithParam<ResetCase>
{
};

TEST_P(ResetRewinds, ReplaysTheHeadAfterAReset)
{
    auto source = GetParam().make();
    const auto head = source->drain(300);
    ASSERT_EQ(head.size(), 300u);
    source->drain(400); // mid-stream; past the end of the trace
    source->reset();
    EXPECT_EQ(source->drain(300), head);
}

INSTANTIATE_TEST_SUITE_P(
    Sources, ResetRewinds, ::testing::ValuesIn(resetCases()),
    [](const auto &info) { return info.param.name; });

TEST(Spec92Profile, MemoryDensityIsRealistic)
{
    // Data references should be roughly 20-50 % of instructions
    // (typical for RISC codes, paper Sec. 3).
    for (const auto &name : Spec92Profile::names()) {
        auto gen = Spec92Profile::make(name, 7);
        WorkloadProfile profile;
        profile.consume(*gen, 20000);
        EXPECT_GT(profile.memoryReferenceDensity(), 0.15) << name;
        EXPECT_LT(profile.memoryReferenceDensity(), 0.55) << name;
    }
}

} // namespace
} // namespace uatm
