/**
 * @file
 * Tests for the Alpert & Flynn cache cost model (reference [6]):
 * tag arithmetic, overhead monotonicity, and the cost-effective
 * line-size selection.
 */

#include <gtest/gtest.h>

#include "expect_status.hh"
#include "linesize/cost_model.hh"
#include "linesize/line_tradeoff.hh"

namespace uatm {
namespace {

CacheConfig
geometry(std::uint64_t size = 16 * 1024, std::uint32_t assoc = 2,
         std::uint32_t line = 32)
{
    CacheConfig config;
    config.sizeBytes = size;
    config.assoc = assoc;
    config.lineBytes = line;
    return config;
}

TEST(AreaModel, TagBitsHandComputed)
{
    // 16K, 2-way, 32B lines: 256 sets -> 8 index bits, 5 offset
    // bits; 32-bit addresses leave 19 tag bits.
    CacheAreaModel area;
    EXPECT_EQ(area.tagBits(geometry()), 19u);
}

TEST(AreaModel, LargerLinesNeedFewerTagBitsTotal)
{
    CacheAreaModel area;
    // Doubling the line halves the line count; per-line tag bits
    // grow by one (offset steals an index bit? no: offset +1,
    // index -1, tag unchanged) — total overhead halves-ish.
    const auto small = area.overheadBits(geometry(16384, 2, 16));
    const auto large = area.overheadBits(geometry(16384, 2, 64));
    EXPECT_GT(small, large);
    EXPECT_NEAR(static_cast<double>(small) /
                    static_cast<double>(large),
                4.0, 0.5);
}

TEST(AreaModel, OverheadFractionShrinksWithLine)
{
    CacheAreaModel area;
    double previous = 1.0;
    for (std::uint32_t line : {8u, 16u, 32u, 64u, 128u}) {
        const double frac =
            area.overheadFraction(geometry(16384, 2, line));
        EXPECT_LT(frac, previous);
        previous = frac;
    }
}

TEST(AreaModel, DataBitsIndependentOfLine)
{
    CacheAreaModel area;
    EXPECT_EQ(area.dataBits(geometry(16384, 2, 16)),
              area.dataBits(geometry(16384, 2, 128)));
}

TEST(AreaModel, TotalBitsAddUp)
{
    CacheAreaModel area;
    const auto config = geometry();
    EXPECT_EQ(area.totalBits(config),
              area.dataBits(config) + area.overheadBits(config));
}

TEST(AreaModel, RejectsSillyAddressWidth)
{
    CacheAreaModel area;
    area.addressBits = 8;
    EXPECT_TRUE(isStatus(area.validate(), ErrorCode::InvalidArgument,
                         "plausible"));
    EXPECT_TRUE(throwsStatus([&] { area.tagBits(geometry()); },
                             ErrorCode::InvalidArgument, "plausible"));
}

TEST(CostEffective, SweepCoversTheTable)
{
    CacheAreaModel area;
    LineDelayModel delay;
    delay.c = 7;
    delay.beta = 2;
    delay.busWidth = 4;
    const auto points = costEffectivenessSweep(
        MissRatioTable::designTarget16K(), delay, area,
        geometry());
    EXPECT_EQ(points.size(), 5u);
    for (const auto &point : points) {
        EXPECT_GT(point.meanMemoryDelay, 0.0);
        EXPECT_GT(point.totalBits, 0u);
        EXPECT_NEAR(point.delayAreaProduct,
                    point.meanMemoryDelay *
                        static_cast<double>(point.totalBits),
                    1.0);
    }
}

TEST(CostEffective, NeverSmallerThanSmithsOptimum)
{
    // Alpert & Flynn: tag overhead only ever pushes the choice
    // toward larger lines, because area strictly falls with line
    // size at fixed capacity while delay is the common factor.
    CacheAreaModel area;
    LineDelayModel delay;
    delay.busWidth = 4;
    for (double beta : {0.5, 1.0, 2.0, 4.0, 8.0}) {
        delay.c = 7;
        delay.beta = beta;
        for (const auto &table :
             {MissRatioTable::designTarget8K(),
              MissRatioTable::designTarget16K()}) {
            const auto smith = meanDelayOptimalLine(table, delay);
            const auto cost = costEffectiveLine(table, delay, area,
                                                geometry(8192, 2));
            EXPECT_GE(cost, smith)
                << table.name() << " beta=" << beta;
        }
    }
}

TEST(CostEffective, TinyAddressOverheadChangesNothing)
{
    // With negligible tag overhead the cost-effective line equals
    // the pure delay optimum.
    CacheAreaModel area;
    area.addressBits = 20; // few tag bits
    area.stateBitsPerLine = 0;
    area.replacementBitsPerLine = 0;
    LineDelayModel delay;
    delay.c = 7;
    delay.beta = 2;
    delay.busWidth = 4;
    const auto table = MissRatioTable::designTarget16K();
    // Overhead still shrinks with line, so the cost-effective
    // choice may exceed the delay optimum by at most one step.
    const auto smith = meanDelayOptimalLine(table, delay);
    const auto cost =
        costEffectiveLine(table, delay, area, geometry());
    EXPECT_GE(cost, smith);
    EXPECT_LE(cost, smith * 4);
}

} // namespace
} // namespace uatm
