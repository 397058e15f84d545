/**
 * @file
 * Tests for the remaining public-API surface: the umbrella header,
 * the Short & Levy workload mix, W transfer accounting, name
 * helpers and describe() strings.
 */

#include <gtest/gtest.h>

#include "uatm.hh"

namespace uatm {
namespace {

TEST(UmbrellaHeader, EverythingIsReachable)
{
    // Touch one symbol from each module through the single
    // include above; compiling this file is most of the test.
    Rng rng(1);
    (void)rng();
    Trace trace;
    EXPECT_TRUE(trace.empty());
    CacheConfig cache;
    EXPECT_TRUE(cache.validate().ok());
    MemoryConfig memory;
    EXPECT_TRUE(memory.validate().ok());
    Machine machine;
    EXPECT_TRUE(machine.validate().ok());
    LineDelayModel delay;
    delay.validate();
    CacheAreaModel area;
    area.validate();
    SUCCEED();
}

// ------------------------------------------------ ShortLevyWorkload

TEST(ShortLevy, DeterministicFromSeed)
{
    auto a = ShortLevyWorkload::make(5);
    auto b = ShortLevyWorkload::make(5);
    EXPECT_EQ(a->drain(400), b->drain(400));
}

TEST(ShortLevy, CurveRisesThroughTheExampleRange)
{
    // The whole point of the mix: the size -> HR curve rises
    // meaningfully from 8K through 128K, like [14]'s data.
    auto workload = ShortLevyWorkload::make(42);
    CacheConfig config;
    config.assoc = 2;
    config.lineBytes = 32;
    std::vector<double> hr;
    for (std::uint64_t size : {8192, 32768, 131072}) {
        config.sizeBytes = size;
        hr.push_back(
            runCacheSim(config, *workload, 60000, 6000).hitRatio());
    }
    EXPECT_GT(hr[1], hr[0] + 0.02);
    EXPECT_GT(hr[2], hr[1] + 0.005);
    EXPECT_GT(hr[0], 0.80);
    EXPECT_LT(hr[2], 1.0);
}

// --------------------------------------------------- writeTransfers

TEST(WriteTransfers, EqualsCountWhenStoresFitTheBus)
{
    CacheStats stats;
    stats.storesToMemory = 10;
    stats.storesToMemoryBytes = 40; // 4B stores on a 4B bus
    EXPECT_DOUBLE_EQ(stats.writeTransfers(4), 10.0);
}

TEST(WriteTransfers, WideStoresNeedMultipleTransfers)
{
    CacheStats stats;
    stats.storesToMemory = 10;
    stats.storesToMemoryBytes = 80; // 8B stores on a 4B bus
    EXPECT_DOUBLE_EQ(stats.writeTransfers(4), 20.0);
    // On an 8-byte bus they fit again.
    EXPECT_DOUBLE_EQ(stats.writeTransfers(8), 10.0);
}

TEST(WriteTransfers, SubBusStoresStillCostOneEach)
{
    CacheStats stats;
    stats.storesToMemory = 10;
    stats.storesToMemoryBytes = 20; // 2B stores
    EXPECT_DOUBLE_EQ(stats.writeTransfers(4), 10.0);
}

TEST(WriteTransfers, WorkloadKeepsBothViews)
{
    CacheStats stats;
    stats.accesses = 100;
    stats.instructions = 400;
    stats.fills = 5;
    stats.storesToMemory = 10;
    stats.storesToMemoryBytes = 80;
    const Workload w = Workload::fromCacheRun(stats, 32, 4);
    // Lambda_m counts instructions; the W term counts transfers.
    EXPECT_DOUBLE_EQ(w.writeArounds, 10.0);
    EXPECT_DOUBLE_EQ(w.writeTransferCount(), 20.0);
    EXPECT_DOUBLE_EQ(w.lambdaM(32), 15.0);
}

// -------------------------------------------------------- name helpers

TEST(Names, PrefetchPolicies)
{
    EXPECT_STREQ(prefetchPolicyName(PrefetchPolicy::None), "none");
    EXPECT_STREQ(prefetchPolicyName(PrefetchPolicy::OnMiss),
                 "on-miss");
    EXPECT_STREQ(prefetchPolicyName(PrefetchPolicy::Tagged),
                 "tagged");
}

TEST(Names, TradeFeatures)
{
    EXPECT_STREQ(tradeFeatureName(TradeFeature::DoubleBus),
                 "doubling bus");
    EXPECT_STREQ(tradeFeatureName(TradeFeature::PipelinedMemory),
                 "pipelined mem");
}

TEST(Describe, VictimHierarchy)
{
    CacheConfig config;
    VictimCachedHierarchy cache(config, VictimConfig{4});
    EXPECT_NE(cache.describe().find("victim buffer"),
              std::string::npos);
}

TEST(Describe, MachineAndWorkload)
{
    Machine m;
    EXPECT_NE(m.describe().find("mu_m"), std::string::npos);
    EXPECT_NE(m.withPipelining(2).describe().find("pipelined"),
              std::string::npos);
}

// ------------------------------------------------ victim pricing

TEST(VictimPricing, FactorGrowsWithHitFraction)
{
    TradeoffContext ctx;
    ctx.machine.busWidth = 4;
    ctx.machine.lineBytes = 32;
    ctx.machine.cycleTime = 8;
    double previous = 0.0;
    for (double f : {0.0, 0.2, 0.5, 0.8}) {
        const double r = missFactorVictim(ctx, f, 2.0);
        EXPECT_GT(r, previous - 1e-12) << f;
        previous = r;
    }
    // f = 0 changes nothing.
    EXPECT_NEAR(missFactorVictim(ctx, 0.0, 2.0), 1.0, 1e-12);
}

TEST(VictimPricing, ComparableToOtherFeatures)
{
    // A buffer catching 60 % of misses at a 2-cycle swap is worth
    // more hit ratio than read-bypassing write buffers here.
    TradeoffContext ctx;
    ctx.machine.busWidth = 4;
    ctx.machine.lineBytes = 32;
    ctx.machine.cycleTime = 8;
    EXPECT_GT(missFactorVictim(ctx, 0.6, 2.0),
              missFactorWriteBuffers(ctx));
}

TEST(VictimPricing, RejectsSwapDearerThanMiss)
{
    TradeoffContext ctx;
    ctx.machine.busWidth = 4;
    ctx.machine.lineBytes = 32;
    ctx.machine.cycleTime = 2;
    try {
        missFactorVictim(ctx, 0.5, 1000.0);
        FAIL() << "expected StatusError";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), ErrorCode::InvalidArgument);
        EXPECT_NE(e.status().message().find("cheaper"),
                  std::string::npos);
    }
}

// --------------------------------------------------- stat counters

TEST(StatCounters, MirrorTheBreakdown)
{
    TimingStats stats;
    stats.cycles = 100;
    stats.fills = 7;
    stats.prefetchesIssued = 3;
    obs::StatRegistry registry;
    stats.registerStats(registry, "engine");
    EXPECT_EQ(registry.value("engine.sim.cycles"), 100.0);
    EXPECT_EQ(registry.value("engine.sim.fills"), 7.0);
    EXPECT_EQ(registry.value("engine.prefetch.issued"), 3.0);
    EXPECT_NE(registry.formatText().find("stall.flush"),
              std::string::npos);
}

} // namespace
} // namespace uatm
