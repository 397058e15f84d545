/**
 * @file
 * Unit tests for the workload characterisation (paper Table 1,
 * Eqs. 1/4/5) and the analytic machine description (Eq. 9).
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/machine.hh"
#include "core/workload.hh"
#include "expect_status.hh"

namespace uatm {
namespace {

// --------------------------------------------------------------- Workload

TEST(Workload, LambdaMCombinesReadsAndWriteArounds)
{
    Workload w;
    w.instructions = 1000;
    w.bytesRead = 320; // 10 lines of 32B
    w.writeArounds = 5;
    w.dataRefs = 300;
    // Eq. 1: Lambda_m = R/L + W.
    EXPECT_DOUBLE_EQ(w.lambdaM(32), 15.0);
    EXPECT_DOUBLE_EQ(w.lambdaH(32), 285.0);
}

TEST(Workload, HitRatioAndEq4MissRatio)
{
    Workload w = Workload::fromHitRatio(1e6, 3e5, 0.95, 32, 0.5);
    EXPECT_NEAR(w.hitRatio(32), 0.95, 1e-12);
    EXPECT_NEAR(w.missRatio(32), 0.05, 1e-12);
    // Eq. 4: MR = 1/(s+1).
    const double s = w.hitToMissRatio(32);
    EXPECT_NEAR(1.0 / (s + 1.0), w.missRatio(32), 1e-12);
}

TEST(Workload, FromHitRatioReconstructsR)
{
    const Workload w =
        Workload::fromHitRatio(1e6, 1e5, 0.90, 16, 0.5);
    // Lambda_m = 0.1 * 1e5 = 1e4 misses; R = 1e4 * 16.
    EXPECT_DOUBLE_EQ(w.bytesRead, 160000.0);
    EXPECT_DOUBLE_EQ(w.writeArounds, 0.0);
}

TEST(Workload, FromHitRatioWriteAroundSplitsMisses)
{
    const Workload w = Workload::fromHitRatioWriteAround(
        1e6, 1e5, 0.90, 16, 0.5, 0.3);
    // 1e4 misses: 3000 write-arounds, 7000 line fills.
    EXPECT_DOUBLE_EQ(w.writeArounds, 3000.0);
    EXPECT_DOUBLE_EQ(w.bytesRead, 7000.0 * 16);
    EXPECT_NEAR(w.hitRatio(16), 0.90, 1e-12);
}

TEST(Workload, FromCacheRunMirrorsStats)
{
    CacheStats stats;
    stats.accesses = 1000;
    stats.instructions = 4000;
    stats.fills = 50;
    stats.writebacks = 20;
    stats.storesToMemory = 3;
    const Workload w = Workload::fromCacheRun(stats, 32);
    EXPECT_DOUBLE_EQ(w.bytesRead, 1600.0);
    EXPECT_DOUBLE_EQ(w.writeArounds, 3.0);
    EXPECT_NEAR(w.flushRatio, 0.4, 1e-12); // 20/50
    EXPECT_DOUBLE_EQ(w.dataRefs, 1000.0);
}

TEST(Workload, ValidateRejectsNegativeHitRatio)
{
    Workload w;
    w.instructions = 100;
    w.bytesRead = 32 * 200; // 200 misses > 50 refs
    w.dataRefs = 50;
    EXPECT_TRUE(isStatus(w.validate(32), ErrorCode::InvalidArgument,
                         "negative"));
    // The builders reject the same workload by throwing.
    CacheStats stats;
    stats.instructions = 1000;
    stats.accesses = 50;
    stats.fills = 200;
    EXPECT_TRUE(throwsStatus(
        [&] { Workload::fromCacheRun(stats, 32); },
        ErrorCode::InvalidArgument, "negative"));
}

TEST(Workload, ValidateRejectsBadAlpha)
{
    Workload w = Workload::fromHitRatio(100, 30, 0.9, 32, 0.5);
    w.flushRatio = 1.5;
    EXPECT_TRUE(isStatus(w.validate(32), ErrorCode::InvalidArgument,
                         "alpha"));
    EXPECT_TRUE(throwsStatus(
        [] { Workload::fromHitRatio(100, 30, 0.9, 32, 1.5); },
        ErrorCode::InvalidArgument, "alpha"));
}

TEST(Workload, ValidateRejectsNoInstructions)
{
    Workload w = Workload::fromHitRatio(100, 30, 0.9, 32, 0.5);
    w.instructions = 0;
    EXPECT_TRUE(isStatus(w.validate(32), ErrorCode::InvalidArgument,
                         "positive instruction count"));
}

TEST(Workload, ValidateRejectsNegativeCounts)
{
    Workload w = Workload::fromHitRatio(100, 30, 0.9, 32, 0.5);
    w.instrBytesRead = -1;
    EXPECT_TRUE(isStatus(w.validate(32), ErrorCode::InvalidArgument,
                         "must be non-negative"));
}

TEST(Workload, ValidateRejectsNoDataReferences)
{
    Workload w = Workload::fromHitRatio(100, 30, 0.9, 32, 0.5);
    w.dataRefs = 0;
    EXPECT_TRUE(isStatus(w.validate(32), ErrorCode::InvalidArgument,
                         "positive data-reference count"));
}

TEST(Workload, ValidateRejectsNaN)
{
    // A NaN trips no `x <= 0` or `x < lo || x > hi` check, so each
    // check must be written to fail on it.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const Workload base = Workload::fromHitRatio(100, 30, 0.9, 32, 0.5);
    Workload w = base;
    w.instructions = nan;
    EXPECT_TRUE(isStatus(w.validate(32), ErrorCode::InvalidArgument,
                         "positive instruction count, got nan"));
    w = base;
    w.bytesRead = nan;
    EXPECT_TRUE(isStatus(w.validate(32), ErrorCode::InvalidArgument,
                         "got bytes read nan"));
    w = base;
    w.flushRatio = nan;
    EXPECT_TRUE(isStatus(w.validate(32), ErrorCode::InvalidArgument,
                         "alpha must lie in [0, 1], got nan"));
    w = base;
    w.dataRefs = nan;
    EXPECT_TRUE(isStatus(w.validate(32), ErrorCode::InvalidArgument,
                         "positive data-reference count, got nan"));
}

TEST(Workload, ValidateRejectsMoreMissesThanInstructions)
{
    // 60 line misses and 50 write-arounds fit in the 200 data
    // references but not in the 100 instructions.
    Workload w;
    w.instructions = 100;
    w.dataRefs = 200;
    w.bytesRead = 32 * 60;
    w.writeArounds = 50;
    EXPECT_TRUE(isStatus(w.validate(32), ErrorCode::InvalidArgument,
                         "more missing load/stores than "
                         "instructions"));
}

TEST(Workload, ValidateRejectsTooFewWriteAroundTransfers)
{
    Workload w = Workload::fromHitRatioWriteAround(1000, 300, 0.9, 32,
                                                   0.5, 0.5);
    w.writeAroundTransfers = w.writeArounds / 2;
    EXPECT_TRUE(isStatus(w.validate(32), ErrorCode::InvalidArgument,
                         "cannot be fewer than the write-around "
                         "stores"));
}

TEST(Workload, BusTrafficPerInstructionGoodmanMetric)
{
    Workload w;
    w.instructions = 1000;
    w.bytesRead = 3200; // 100 lines of 32B
    w.flushRatio = 0.5;
    w.writeArounds = 10;
    w.dataRefs = 300;
    // (3200 * 1.5 + 10 * 4) / 1000.
    EXPECT_DOUBLE_EQ(w.busTrafficPerInstruction(4), 4.84);
}

TEST(Workload, TrafficGrowsWithLineAtFixedMissCount)
{
    // Goodman's tension: a larger line moves more bytes per miss
    // even when it wins on delay.
    const Workload small =
        Workload::fromHitRatio(1e4, 3e3, 0.95, 16, 0.5);
    const Workload large =
        Workload::fromHitRatio(1e4, 3e3, 0.95, 64, 0.5);
    EXPECT_GT(large.busTrafficPerInstruction(4),
              small.busTrafficPerInstruction(4));
}

TEST(Workload, DescribeContainsParameters)
{
    const Workload w =
        Workload::fromHitRatio(100, 30, 0.9, 32, 0.5);
    const std::string text = w.describe(32);
    EXPECT_NE(text.find("E="), std::string::npos);
    EXPECT_NE(text.find("HR="), std::string::npos);
}

// ---------------------------------------------------------------- Machine

TEST(Machine, LineOverBus)
{
    Machine m;
    m.busWidth = 4;
    m.lineBytes = 32;
    EXPECT_DOUBLE_EQ(m.lineOverBus(), 8.0);
}

TEST(Machine, NonPipelinedTransferTime)
{
    Machine m;
    m.busWidth = 4;
    m.lineBytes = 32;
    m.cycleTime = 8;
    EXPECT_DOUBLE_EQ(m.lineTransferTime(), 64.0);
}

TEST(Machine, PipelinedTransferMatchesEq9)
{
    Machine m;
    m.busWidth = 4;
    m.lineBytes = 32;
    m.cycleTime = 8;
    m = m.withPipelining(2);
    // mu_p = mu_m + q(L/D - 1) = 8 + 14.
    EXPECT_DOUBLE_EQ(m.lineTransferTime(), 22.0);
}

TEST(Machine, PipeliningIsNeutralWhenLineEqualsBus)
{
    Machine m;
    m.busWidth = 8;
    m.lineBytes = 8;
    m.cycleTime = 10;
    const double plain = m.lineTransferTime();
    EXPECT_DOUBLE_EQ(m.withPipelining(2).lineTransferTime(), plain);
}

TEST(Machine, WithDoubledBusHalvesChunks)
{
    Machine m;
    m.busWidth = 4;
    m.lineBytes = 32;
    const Machine wide = m.withDoubledBus();
    EXPECT_DOUBLE_EQ(wide.busWidth, 8.0);
    EXPECT_DOUBLE_EQ(wide.lineOverBus(), 4.0);
}

TEST(Machine, DoublingPastLineIsAnError)
{
    Machine m;
    m.busWidth = 32;
    m.lineBytes = 32;
    try {
        auto w = m.withDoubledBus();
        (void)w;
        FAIL() << "expected StatusError";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), ErrorCode::InvalidArgument);
        EXPECT_NE(e.status().message().find("exceed"),
                  std::string::npos);
    }
}

TEST(Machine, ValidateRejectsLineSmallerThanBus)
{
    Machine m;
    m.busWidth = 16;
    m.lineBytes = 8;
    const Status status = m.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(status.message().find("at least"), std::string::npos);
}

TEST(Machine, ValidateRejectsNaN)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Machine base;
    base.busWidth = 4;
    base.lineBytes = 16;
    Machine m = base;
    m.busWidth = nan;
    EXPECT_TRUE(isStatus(m.validate(), ErrorCode::InvalidArgument,
                         "bus width D must be positive, got nan"));
    m = base;
    m.lineBytes = nan;
    EXPECT_TRUE(isStatus(m.validate(), ErrorCode::InvalidArgument,
                         "line size L = nan"));
    m = base;
    m.cycleTime = nan;
    EXPECT_TRUE(isStatus(m.validate(), ErrorCode::InvalidArgument,
                         "mu_m must be positive, got nan"));
    m = base;
    m.pipelined = true;
    m.pipelineInterval = nan;
    EXPECT_TRUE(isStatus(m.validate(), ErrorCode::InvalidArgument,
                         "pipeline interval q must be positive, got "
                         "nan"));
}

TEST(Machine, WithCycleTimePreservesRest)
{
    Machine m;
    m.busWidth = 4;
    m.lineBytes = 16;
    const Machine m2 = m.withCycleTime(20);
    EXPECT_DOUBLE_EQ(m2.cycleTime, 20.0);
    EXPECT_DOUBLE_EQ(m2.lineBytes, 16.0);
}

} // namespace
} // namespace uatm
