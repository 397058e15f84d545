/**
 * @file
 * Unit tests for the line-size tradeoff (Eqs. 11-19) and the exact
 * agreement with Smith's optimal-line criterion (Sec. 5.4).
 */

#include <gtest/gtest.h>

#include <limits>

#include "expect_status.hh"
#include "linesize/delay_model.hh"
#include "linesize/line_tradeoff.hh"
#include "linesize/miss_table.hh"

namespace uatm {
namespace {

LineDelayModel
model(double c_prime, double beta, double bus = 4)
{
    LineDelayModel m;
    m.c = c_prime + 1.0;
    m.beta = beta;
    m.busWidth = bus;
    return m;
}

// ------------------------------------------------------- LineDelayModel

TEST(DelayModel, FillTime)
{
    const auto m = model(6, 2, 4);
    // c + beta L/D = 7 + 2*8 = 23 for a 32B line.
    EXPECT_DOUBLE_EQ(m.fillTime(32), 23.0);
}

TEST(DelayModel, SmithLatencyIsCMinusOne)
{
    EXPECT_DOUBLE_EQ(model(6, 2).smithLatency(), 6.0);
}

TEST(DelayModel, MeanDelayEq15)
{
    const auto m = model(6, 2, 4);
    // MR * fill + HR * 1 = 0.1*23 + 0.9.
    EXPECT_DOUBLE_EQ(m.meanMemoryDelay(0.1, 32), 3.2);
}

TEST(DelayModel, SmithObjectiveEq16)
{
    const auto m = model(6, 2, 4);
    // MR (c' + beta L/D) = 0.1 * (6 + 16).
    EXPECT_DOUBLE_EQ(m.smithObjective(0.1, 32), 2.2);
}

TEST(DelayModel, Eq15AndEq16DifferByConstant)
{
    // mean delay = smith objective + 1 - MR + MR = objective + 1?
    // Actually: MR(c + bL/D) + 1 - MR = MR(c-1+bL/D) + 1.
    const auto m = model(6, 2, 4);
    for (double mr : {0.02, 0.1, 0.3}) {
        EXPECT_NEAR(m.meanMemoryDelay(mr, 32),
                    m.smithObjective(mr, 32) + 1.0, 1e-12);
    }
}

TEST(DelayModel, FromNanoseconds)
{
    // Figure 6(d): Delay = 360ns + 15ns/byte, D = 8, 60ns cycle:
    // c' = 6, beta = 2.
    const auto m =
        LineDelayModel::fromNanoseconds(360, 15, 60, 8);
    EXPECT_DOUBLE_EQ(m.smithLatency(), 6.0);
    EXPECT_DOUBLE_EQ(m.beta, 2.0);
    EXPECT_TRUE(throwsStatus(
        [] { LineDelayModel::fromNanoseconds(360, 15, 0, 8); },
        ErrorCode::InvalidArgument,
        "CPU cycle time must be positive, got 0"));
}

TEST(DelayModel, FromNanosecondsNeedsAFiniteCycleTime)
{
    // An infinite cycle time used to pass and make beta 0, so the
    // error blamed a bus speed nobody typed.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(throwsStatus(
        [&] { LineDelayModel::fromNanoseconds(360, 15, inf, 8); },
        ErrorCode::InvalidArgument,
        "CPU cycle time must be finite, got inf"));
}

TEST(DelayModel, FromNanosecondsNamesInputsWhoseCyclesOverflow)
{
    // A finite but tiny cycle time makes c and beta infinite: the
    // message names the nanosecond inputs, not c.
    EXPECT_TRUE(throwsStatus(
        [] { LineDelayModel::fromNanoseconds(360, 15, 1e-320, 8); },
        ErrorCode::InvalidArgument,
        "the delay 360 ns + 15 ns/byte (D = 8 bytes) is not a finite "
        "number of "));
}

TEST(DelayModel, FromNanosecondsNamesInputsRoundedToNoCycles)
{
    // A huge cycle time makes c = 360 / 1e308 + 1 exactly 1, which
    // Eq. 13 refused later in words nobody typed; a tiny bus time
    // likewise rounds beta to 0.
    EXPECT_TRUE(throwsStatus(
        [] { LineDelayModel::fromNanoseconds(360, 15, 1e308, 8); },
        ErrorCode::InvalidArgument,
        "the delay 360 ns + 15 ns/byte (D = 8 bytes) rounds to 0 CPU "
        "cycles of 1e+308 ns"));
    EXPECT_TRUE(throwsStatus(
        [] { LineDelayModel::fromNanoseconds(360, 1e-320, 1e10, 8); },
        ErrorCode::InvalidArgument, "rounds to 0 CPU cycles"));
}

TEST(DelayModel, RejectsLatencyBelowTheHitTime)
{
    EXPECT_TRUE(isStatus(model(-0.5, 2).validate(),
                         ErrorCode::InvalidArgument,
                         "latency c must be at least the one-cycle "
                         "hit time"));
}

TEST(DelayModel, RejectsNonPositiveBusSpeed)
{
    EXPECT_TRUE(isStatus(model(6, 0).validate(),
                         ErrorCode::InvalidArgument,
                         "bus speed beta must be positive"));
}

TEST(DelayModel, RejectsNonPositiveBusWidth)
{
    EXPECT_TRUE(isStatus(model(6, 2, 0).validate(),
                         ErrorCode::InvalidArgument,
                         "bus width must be positive"));
    // fromNanoseconds derives beta from the bus width, so a zero
    // width must be blamed on the width, not on beta.
    EXPECT_TRUE(throwsStatus(
        [] { LineDelayModel::fromNanoseconds(360, 15, 60, 0); },
        ErrorCode::InvalidArgument, "bus width must be positive"));
}

TEST(DelayModel, RejectsNaNAndInfinity)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(isStatus(model(nan, 2).validate(),
                         ErrorCode::InvalidArgument,
                         "latency c must be at least the one-cycle "
                         "hit time and finite, got nan"));
    EXPECT_TRUE(isStatus(model(inf, 2).validate(),
                         ErrorCode::InvalidArgument,
                         "and finite, got inf"));
    EXPECT_TRUE(isStatus(model(6, nan).validate(),
                         ErrorCode::InvalidArgument,
                         "bus speed beta must be positive and finite, "
                         "got nan"));
    EXPECT_TRUE(isStatus(model(6, inf).validate(),
                         ErrorCode::InvalidArgument,
                         "bus speed beta must be positive and finite, "
                         "got inf"));
    EXPECT_TRUE(isStatus(model(6, 2, nan).validate(),
                         ErrorCode::InvalidArgument,
                         "bus width must be positive, got nan"));
}

// ------------------------------------------------------- MissRatioTable

TEST(MissTable, LookupAndSorting)
{
    MissRatioTable t("t", {LinePoint{32, 0.03}, LinePoint{8, 0.07}});
    EXPECT_DOUBLE_EQ(t.missRatio(8), 0.07);
    EXPECT_DOUBLE_EQ(t.missRatio(32), 0.03);
    EXPECT_EQ(t.lineSizes().front(), 8u);
    EXPECT_TRUE(t.has(32));
    EXPECT_FALSE(t.has(64));
}

TEST(MissTable, MissingLineIsFatal)
{
    MissRatioTable t("t", {LinePoint{8, 0.07}, LinePoint{16, 0.05}});
    EXPECT_TRUE(throwsStatus([&] { t.missRatio(64); },
                             ErrorCode::NotFound, "no line size"));
}

TEST(MissTable, DuplicateLinesRejected)
{
    EXPECT_TRUE(throwsStatus(
        [] {
            MissRatioTable bad(
                "bad", {LinePoint{8, 0.1}, LinePoint{8, 0.2}});
        },
        ErrorCode::InvalidArgument, "duplicate"));
}

TEST(MissTable, RejectsASingleLineSize)
{
    EXPECT_TRUE(throwsStatus(
        [] { MissRatioTable bad("bad", {LinePoint{8, 0.1}}); },
        ErrorCode::InvalidArgument,
        "'bad' needs at least two line sizes"));
}

TEST(MissTable, RejectsMissRatioAboveOne)
{
    EXPECT_TRUE(throwsStatus(
        [] {
            MissRatioTable bad(
                "bad", {LinePoint{8, 0.1}, LinePoint{16, 1.5}});
        },
        ErrorCode::InvalidArgument, "miss ratio out of [0, 1]"));
}

TEST(MissTable, DesignTargetTablesAreMonotone)
{
    for (const auto &table : {MissRatioTable::designTarget8K(),
                              MissRatioTable::designTarget16K()}) {
        const auto &pts = table.points();
        for (std::size_t i = 1; i < pts.size(); ++i)
            EXPECT_LT(pts[i].missRatio, pts[i - 1].missRatio);
    }
}

TEST(MissTable, SixteenKBeatsEightK)
{
    const auto small = MissRatioTable::designTarget8K();
    const auto big = MissRatioTable::designTarget16K();
    for (std::uint32_t line : small.lineSizes())
        EXPECT_LT(big.missRatio(line), small.missRatio(line));
}

// -------------------------------------------------------- Eq. 13 / Eq. 14

TEST(LineTradeoff, MissFactorBelowOneForLargerLines)
{
    const auto m = model(6, 2, 4);
    const double r = lineMissFactor(m, 8, 32);
    EXPECT_LT(r, 1.0);
    EXPECT_GT(r, 0.0);
}

TEST(LineTradeoff, MissFactorHandComputed)
{
    const auto m = model(6, 2, 4);
    // alpha = 0: r = (c' + beta L0/D)/(c' + beta L1/D)
    //          = (6 + 4)/(6 + 16) = 10/22.
    EXPECT_NEAR(lineMissFactor(m, 8, 32), 10.0 / 22.0, 1e-12);
}

TEST(LineTradeoff, RejectsCostAtTheHitCycle)
{
    // c = 1 and a bus so fast that beta L/D rounds away: a fill
    // costs exactly the hit cycle, and Eq. 13 divides by zero.
    const auto m = model(0, 1e-20, 4);
    EXPECT_TRUE(throwsStatus([&] { lineMissFactor(m, 4, 8); },
                             ErrorCode::OutOfRange,
                             "must exceed the hit cycle for Eq. 13"));
}

TEST(LineTradeoff, RequiredGainPositiveAndScalesWithMR)
{
    const auto m = model(6, 2, 4);
    const double g1 = requiredHitRatioGain(m, 8, 32, 0.05);
    const double g2 = requiredHitRatioGain(m, 8, 32, 0.10);
    EXPECT_GT(g1, 0.0);
    EXPECT_NEAR(g2, 2.0 * g1, 1e-12);
}

TEST(LineTradeoff, FlushesRaiseTheBar)
{
    const auto m = model(6, 2, 4);
    const double without = requiredHitRatioGain(m, 8, 32, 0.05);
    const double with =
        requiredHitRatioGain(m, 8, 32, 0.05, 0.5, 0.5);
    // Same alpha on both sides still changes r (multiplies the
    // fill terms), so the thresholds differ.
    EXPECT_NE(without, with);
}

// ------------------------------------------------- Eq. 19 vs Smith (exact)

TEST(SmithValidation, ReducedDelayEqualsSmithDifference)
{
    // The central identity of Sec. 5.4.2: Eq. 19's value equals
    // Smith(L0) - Smith(Li) exactly (alpha = 0).  Verify to
    // machine precision across tables and betas.
    for (const auto &table : {MissRatioTable::designTarget8K(),
                              MissRatioTable::designTarget16K()}) {
        for (double beta : {0.5, 1.0, 2.0, 3.0, 5.0, 8.0}) {
            const auto m = model(6, beta, 4);
            const double base = m.smithObjective(
                table.missRatio(8), 8.0);
            for (std::uint32_t line : table.lineSizes()) {
                if (line <= 8)
                    continue;
                const double v =
                    reducedDelay(table, m, 8, line);
                const double smith = m.smithObjective(
                    table.missRatio(line),
                    static_cast<double>(line));
                EXPECT_NEAR(v, base - smith, 1e-12)
                    << table.name() << " beta=" << beta
                    << " L=" << line;
            }
        }
    }
}

TEST(SmithValidation, OptimaAgreeEverywhere)
{
    // Because of the identity above, the Eq. 19 choice achieves
    // Smith's minimal objective for every table and beta (asserted
    // on objective value, which is robust to exact ties between
    // line sizes — e.g. the 16K table ties 8B and 16B at beta=6).
    for (const auto &table : {MissRatioTable::designTarget8K(),
                              MissRatioTable::designTarget16K()}) {
        for (double beta :
             {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0}) {
            const auto m = model(6, beta, 4);
            const auto ours = tradeoffOptimalLine(table, m, 8);
            const auto smiths = smithOptimalLine(table, m);
            EXPECT_NEAR(
                m.smithObjective(table.missRatio(ours), ours),
                m.smithObjective(table.missRatio(smiths), smiths),
                1e-9)
                << table.name() << " beta=" << beta;
        }
    }
}

TEST(SmithValidation, MeanDelayCriterionAgreesWithSmith)
{
    // Eq. 15 and Eq. 16 pick the same line (common hit cycle).
    for (const auto &table : {MissRatioTable::designTarget8K(),
                              MissRatioTable::designTarget16K()}) {
        for (double beta : {0.5, 2.0, 6.0}) {
            const auto m = model(10, beta, 8);
            EXPECT_EQ(meanDelayOptimalLine(table, m),
                      smithOptimalLine(table, m));
        }
    }
}

TEST(SmithValidation, PaperPanelOptima)
{
    // Figure 6's stated Smith optima, one per panel.
    // (a) 16K, D=4, c'=6, beta=2 -> 32 bytes.
    EXPECT_EQ(smithOptimalLine(MissRatioTable::designTarget16K(),
                               model(6, 2, 4)),
              32u);
    // (b) 8K, D=8, c'=4, beta=3 -> 16 bytes.
    EXPECT_EQ(smithOptimalLine(MissRatioTable::designTarget8K(),
                               model(4, 3, 8)),
              16u);
    // (c) 16K, D=8, c'=16.75, beta=1 -> 64 bytes.
    EXPECT_EQ(smithOptimalLine(MissRatioTable::designTarget16K(),
                               model(16.75, 1, 8)),
              64u);
    // (d) 8K, D=8, c'=6, beta=2 -> 32 bytes.
    EXPECT_EQ(smithOptimalLine(MissRatioTable::designTarget8K(),
                               model(6, 2, 8)),
              32u);
}

TEST(LineTradeoff, FallsBackToBaseWhenNothingWins)
{
    // A table where larger lines barely improve: at very slow
    // buses no larger line has positive reduced delay.
    MissRatioTable flat("flat", {LinePoint{8, 0.050},
                                 LinePoint{16, 0.049},
                                 LinePoint{32, 0.048}});
    const auto m = model(2, 50, 4);
    EXPECT_EQ(tradeoffOptimalLine(flat, m, 8), 8u);
}

TEST(LineTradeoff, SweepCoversAllLinesAndBetas)
{
    const auto table = MissRatioTable::designTarget16K();
    const auto points = sweepReducedDelay(
        table, model(6, 1, 4), 8, {1.0, 2.0, 3.0});
    // 4 larger lines x 3 betas.
    EXPECT_EQ(points.size(), 12u);
}

TEST(LineTradeoff, BeneficialBetaRangeExists)
{
    const auto table = MissRatioTable::designTarget16K();
    const auto range = beneficialBetaRange(
        table, model(6, 1, 4), 8, 32, 0.1, 10.0);
    ASSERT_TRUE(range.has_value());
    EXPECT_LT(range->first, range->second);
    // Fast buses (small beta) benefit most; the range should
    // include beta = 1.
    EXPECT_LE(range->first, 1.0);
}

TEST(LineTradeoff, TooSlowBusHasNoBenefit)
{
    // Sec. 5.4.2: bus speeds with negative reduced delay are "too
    // slow to be useful for a larger line".  Make the tail flat so
    // 128B never pays at slow buses.
    MissRatioTable table("t", {LinePoint{8, 0.05},
                               LinePoint{128, 0.049}});
    const auto range = beneficialBetaRange(
        table, model(6, 1, 4), 8, 128, 0.5, 50.0);
    EXPECT_FALSE(range.has_value());
}

} // namespace
} // namespace uatm
