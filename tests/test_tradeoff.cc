/**
 * @file
 * Unit tests for the unified tradeoff model: Table 3 miss factors,
 * Eqs. 6/7, crossovers and feature ranking.
 */

#include <gtest/gtest.h>

#include "core/execution_time.hh"
#include "core/tradeoff.hh"
#include "expect_status.hh"

namespace uatm {
namespace {

TradeoffContext
context(double mu_m, double line = 32, double bus = 4,
        double alpha = 0.5)
{
    TradeoffContext ctx;
    ctx.machine.busWidth = bus;
    ctx.machine.lineBytes = line;
    ctx.machine.cycleTime = mu_m;
    ctx.alpha = alpha;
    return ctx;
}

// ------------------------------------------------------------ perMissCost

TEST(PerMissCost, FullStallingFormula)
{
    Machine m;
    m.busWidth = 4;
    m.lineBytes = 32;
    m.cycleTime = 8;
    // (L/D + (L/D) alpha) mu_m = (8 + 4) * 8.
    EXPECT_DOUBLE_EQ(perMissCost(m, 8.0, 0.5), 96.0);
}

TEST(PerMissCost, PipelinedFormula)
{
    Machine m;
    m.busWidth = 4;
    m.lineBytes = 32;
    m.cycleTime = 8;
    m = m.withPipelining(2);
    // (1 + alpha) mu_p = 1.5 * 22.
    EXPECT_DOUBLE_EQ(perMissCost(m, 0.0, 0.5), 33.0);
}

// -------------------------------------------------------------- double bus

TEST(DoubleBus, PaperLimitAtMuTwoAndLTwoD)
{
    // Sec. 4.1: with L = 2D, mu_m = 2, alpha = 0.5: R' = 2.5 R.
    const double r = missFactorDoubleBus(context(2, 8, 4));
    EXPECT_NEAR(r, 2.5, 1e-12);
}

TEST(DoubleBus, PaperLimitAtLargeMu)
{
    // Sec. 4.1: mu_m -> infinity gives R' = 2 R.
    const double r = missFactorDoubleBus(context(1e9, 8, 4));
    EXPECT_NEAR(r, 2.0, 1e-6);
}

TEST(DoubleBus, FactorDecreasesWithMuM)
{
    double previous = 1e18;
    for (double mu : {2.0, 4.0, 8.0, 16.0, 32.0}) {
        const double r = missFactorDoubleBus(context(mu, 8, 4));
        EXPECT_LT(r, previous);
        previous = r;
    }
}

TEST(DoubleBus, FactorAlwaysAboveTwoLimitBand)
{
    // The paper: r lies in [2, 2.5] for L = 2D, alpha = 0.5.
    for (double mu : {2.0, 3.0, 5.0, 10.0, 50.0}) {
        const double r = missFactorDoubleBus(context(mu, 8, 4));
        EXPECT_GE(r, 2.0);
        EXPECT_LE(r, 2.5);
    }
}

TEST(DoubleBus, Eq6GivesTwoHrMinusOneLimits)
{
    // HR2 = 2.5 HR - 1.5 at mu=2: 0.95 -> 0.875.
    const double r = missFactorDoubleBus(context(2, 8, 4));
    EXPECT_NEAR(equivalentHitRatio(r, 0.95), 2.5 * 0.95 - 1.5,
                1e-12);
    // HR2 = 2 HR - 1 at large mu: 0.95 -> 0.90.
    const double r_inf = missFactorDoubleBus(context(1e9, 8, 4));
    EXPECT_NEAR(equivalentHitRatio(r_inf, 0.95), 2.0 * 0.95 - 1.0,
                1e-6);
}

TEST(DoubleBus, Eq7GainBand)
{
    // Sec. 4.1: raising HR by 0.5(1-HR)..0.6(1-HR) matches
    // doubling the bus (L >= 2D, alpha = 0.5).
    const double r2 = missFactorDoubleBus(context(2, 8, 4));
    EXPECT_NEAR(hitRatioGainRequired(r2, 0.95), 0.6 * (1 - 0.95),
                1e-12);
    const double r_inf = missFactorDoubleBus(context(1e9, 8, 4));
    EXPECT_NEAR(hitRatioGainRequired(r_inf, 0.95),
                0.5 * (1 - 0.95), 1e-6);
}

TEST(DoubleBus, EquivalencePropertyViaEq2)
{
    // Property: the hit ratio from Eq. 6 makes X(2D) equal X(D),
    // at any operating point.
    for (double mu : {2.0, 4.0, 7.5, 12.0}) {
        for (double line : {8.0, 16.0, 32.0}) {
            const TradeoffContext ctx = context(mu, line, 4);
            const double r = missFactorDoubleBus(ctx);
            const double hr1 = 0.96;
            const double hr2 = equivalentHitRatio(r, hr1);

            const Workload w1 = Workload::fromHitRatio(
                1e6, 2e5, hr1, line, ctx.alpha);
            const Workload w2 = Workload::fromHitRatio(
                1e6, 2e5, hr2, line, ctx.alpha);
            const double x1 = executionTimeFS(w1, ctx.machine);
            const double x2 = executionTimeFS(
                w2, ctx.machine.withDoubledBus());
            EXPECT_NEAR(x1, x2, x1 * 1e-10)
                << "mu=" << mu << " L=" << line;
        }
    }
}

TEST(WidenBus, FactorTwoMatchesDoubleBus)
{
    const TradeoffContext ctx = context(6, 32, 4);
    EXPECT_DOUBLE_EQ(missFactorWidenBus(ctx, 2.0),
                     missFactorDoubleBus(ctx));
}

TEST(WidenBus, QuadruplingBeatsDoubling)
{
    const TradeoffContext ctx = context(6, 32, 4);
    EXPECT_GT(missFactorWidenBus(ctx, 4.0),
              missFactorWidenBus(ctx, 2.0));
    EXPECT_GT(missFactorWidenBus(ctx, 8.0),
              missFactorWidenBus(ctx, 4.0));
}

TEST(WidenBus, ComposesLikeTwoSteps)
{
    // r(D->4D) relates the same endpoint systems as doubling
    // twice: r_4 = r(D->2D) * r(2D->4D).
    const TradeoffContext ctx = context(6, 32, 4);
    TradeoffContext mid = ctx;
    mid.machine = ctx.machine.withDoubledBus();
    EXPECT_NEAR(missFactorWidenBus(ctx, 4.0),
                missFactorDoubleBus(ctx) *
                    missFactorDoubleBus(mid),
                1e-12);
}

TEST(WidenBus, RejectsWideningPastTheLine)
{
    const TradeoffContext ctx = context(6, 8, 4);
    try {
        missFactorWidenBus(ctx, 4.0);
        FAIL() << "expected StatusError";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), ErrorCode::InvalidArgument);
        EXPECT_NE(e.status().message().find("exceed"),
                  std::string::npos);
    }
}

// ----------------------------------------------------------- partial stall

TEST(PartialStall, FullPhiMeansNoGain)
{
    const TradeoffContext ctx = context(8);
    const double r = missFactorPartialStall(ctx, 8.0);
    EXPECT_NEAR(r, 1.0, 1e-12);
}

TEST(PartialStall, SmallerPhiTradesMoreHitRatio)
{
    const TradeoffContext ctx = context(8);
    EXPECT_GT(missFactorPartialStall(ctx, 1.0),
              missFactorPartialStall(ctx, 4.0));
}

TEST(PartialStall, RejectsPhiOutOfBounds)
{
    const TradeoffContext ctx = context(8);
    EXPECT_DEATH(
        { missFactorPartialStall(ctx, 9.0); }, "outside");
}

// ----------------------------------------------------------- write buffers

TEST(WriteBuffers, FactorMatchesTable3)
{
    // r = ((L/D)(1+a) mu - 1) / ((L/D) mu - 1), L=8, D=4, mu=2:
    // (3*2-1)/(2*2-1) = 5/3.
    const double r = missFactorWriteBuffers(context(2, 8, 4));
    EXPECT_NEAR(r, 5.0 / 3.0, 1e-12);
}

TEST(WriteBuffers, LargeMuLimitIsOnePlusAlpha)
{
    const double r = missFactorWriteBuffers(context(1e9, 8, 4));
    EXPECT_NEAR(r, 1.5, 1e-6);
}

TEST(WriteBuffers, NoFlushesNothingToHide)
{
    const double r =
        missFactorWriteBuffers(context(8, 8, 4, /*alpha=*/0.0));
    EXPECT_NEAR(r, 1.0, 1e-12);
}

// -------------------------------------------------------------- pipelined

TEST(Pipelined, NeutralAtMuEqualsQ)
{
    // Solid lines meet the x axis at mu_m = 2 when q = 2
    // (Figs. 3-5): pipelining changes nothing there.
    const double r = missFactorPipelined(context(2, 32, 4), 2.0);
    EXPECT_NEAR(r, 1.0, 1e-12);
}

TEST(Pipelined, GrowsWithMuM)
{
    double previous = 0.0;
    for (double mu : {2.0, 4.0, 8.0, 16.0}) {
        const double r =
            missFactorPipelined(context(mu, 32, 4), 2.0);
        EXPECT_GT(r, previous);
        previous = r;
    }
}

TEST(Pipelined, ApproachesLOverDAtLargeMu)
{
    // r -> (L/D)(1+a)mu / ((1+a)mu) = L/D as mu grows.
    const double r =
        missFactorPipelined(context(1e7, 32, 4), 2.0);
    EXPECT_NEAR(r, 8.0, 1e-3);
}

// --------------------------------------------------------------- Eq. 6 / 7

TEST(Eq6, DeltaIsProportionalToMissRatio)
{
    EXPECT_NEAR(hitRatioTraded(2.0, 0.98), 0.02, 1e-12);
    EXPECT_NEAR(hitRatioTraded(2.0, 0.90), 0.10, 1e-12);
    EXPECT_NEAR(hitRatioTraded(1.0, 0.90), 0.0, 1e-12);
}

TEST(Eq6, OutOfRangeThrows)
{
    // r so large that HR2 < 0: Eq. 6's validity bound.
    try {
        equivalentHitRatio(100.0, 0.5);
        FAIL() << "expected StatusError";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), ErrorCode::OutOfRange);
        EXPECT_NE(e.status().message().find("validity"),
                  std::string::npos);
    }
    // A hit ratio outside [0, 1] is an input error, in both
    // directions (a CLI flag or a scenario file can give one).
    EXPECT_TRUE(throwsStatus([] { hitRatioTraded(2.0, 1.5); },
                             ErrorCode::InvalidArgument,
                             "hit ratio must be in [0, 1], got 1.5"));
    EXPECT_TRUE(throwsStatus([] { hitRatioGainRequired(2.0, -0.5); },
                             ErrorCode::InvalidArgument,
                             "hit ratio must be in [0, 1], got -0.5"));
}

TEST(Eq7, InverseDirectionConsistent)
{
    // Moving HR2 up by the Eq. 7 gain then applying Eq. 6 with the
    // same r must return to HR2.
    const double r = 2.0;
    const double hr2 = 0.90;
    const double hr1 = hr2 + hitRatioGainRequired(r, hr2);
    EXPECT_NEAR(equivalentHitRatio(r, hr1), hr2, 1e-12);
}

// -------------------------------------------------------------- crossover

TEST(Crossover, PipelinedOvertakesDoubleBusNearFive)
{
    // Sec. 5.3 / Summary: for L/D > 2 and q = 2 the pipelined
    // system wins once mu_m exceeds about five or six cycles.
    const auto mu = crossoverCycleTime(
        context(8, 32, 4), TradeFeature::PipelinedMemory,
        TradeFeature::DoubleBus, 2.0, 1.0, 2.0, 30.0);
    ASSERT_TRUE(mu.has_value());
    EXPECT_GT(*mu, 3.5);
    EXPECT_LT(*mu, 6.5);
}

TEST(Crossover, NoneForLOverDTwo)
{
    // Fig. 3: with L/D = 2 and q = 2 pipelining never beats
    // doubling the bus.
    const auto mu = crossoverCycleTime(
        context(8, 8, 4), TradeFeature::PipelinedMemory,
        TradeFeature::DoubleBus, 2.0, 1.0, 2.0, 200.0);
    EXPECT_FALSE(mu.has_value());
}

// ---------------------------------------------------------------- ranking

TEST(Ranking, PaperOrderAtModerateMu)
{
    // Sec. 5.3: excluding pipelined memory, the order is
    // bus > write buffers > BNL.  At small mu_m the pipelined
    // system is below doubling the bus.
    const auto scores = rankFeatures(context(4, 32, 4), 0.95,
                                     /*phi=*/7.0, /*q=*/2.0);
    ASSERT_EQ(scores.size(), 4u);

    auto position = [&](TradeFeature f) {
        for (std::size_t i = 0; i < scores.size(); ++i)
            if (scores[i].feature == f)
                return i;
        return scores.size();
    };
    EXPECT_LT(position(TradeFeature::DoubleBus),
              position(TradeFeature::WriteBuffers));
    EXPECT_LT(position(TradeFeature::WriteBuffers),
              position(TradeFeature::PartialStall));
}

TEST(Ranking, PipelinedWinsAtLargeMu)
{
    const auto scores = rankFeatures(context(16, 32, 4), 0.95,
                                     7.0, 2.0);
    EXPECT_EQ(scores.front().feature,
              TradeFeature::PipelinedMemory);
}

TEST(Ranking, ScoresCarryConsistentDeltas)
{
    const auto scores =
        rankFeatures(context(8, 32, 4), 0.95, 7.0, 2.0);
    for (const auto &s : scores) {
        EXPECT_NEAR(s.hitRatioTraded,
                    hitRatioTraded(s.missFactor, 0.95), 1e-12);
    }
}

// ------------------------------------------------------------- validation

TEST(TradeoffContext, RejectsPipelinedBase)
{
    TradeoffContext ctx = context(8);
    ctx.machine = ctx.machine.withPipelining(2);
    const Status status = ctx.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(status.message().find("non-pipelined"),
              std::string::npos);
}

TEST(MissFactor, ThrowsWhenCostBelowHitCycle)
{
    Machine m;
    m.busWidth = 8;
    m.lineBytes = 8;
    m.cycleTime = 1;
    // per-miss cost = (1 + 0) * 1 = 1: not > 1.
    try {
        missFactor(m, 1.0, 0.0, m, 1.0, 0.0);
        FAIL() << "expected StatusError";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), ErrorCode::OutOfRange);
        EXPECT_NE(e.status().message().find("per-miss"),
                  std::string::npos);
    }
}

} // namespace
} // namespace uatm
