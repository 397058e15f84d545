/**
 * @file
 * Unit and property tests for the issue width k of Machine (the
 * multiple-issue machine the paper announces as future work,
 * Sec. 6): Eq. 2 and Eq. 3 with the hit time 1/k.
 */

#include <gtest/gtest.h>

#include "core/execution_time.hh"
#include "core/tradeoff.hh"
#include "expect_status.hh"

namespace uatm {
namespace {

TradeoffContext
context(double mu_m, double line = 32, double k = 1)
{
    TradeoffContext ctx;
    ctx.machine.busWidth = 4;
    ctx.machine.lineBytes = line;
    ctx.machine.cycleTime = mu_m;
    ctx.machine.issueWidth = k;
    ctx.alpha = 0.5;
    return ctx;
}

/** @p m at issue width @p k. */
Machine
width(Machine m, double k)
{
    m.issueWidth = k;
    return m;
}

TEST(Superscalar, WidthOneRecoversThePaperModel)
{
    const Workload w =
        Workload::fromHitRatio(1e6, 3e5, 0.95, 32, 0.5);
    const Machine m = context(8).machine;
    EXPECT_DOUBLE_EQ(executionTime(w, width(m, 1), 8.0),
                     executionTime(w, m, 8.0));
    EXPECT_DOUBLE_EQ(missFactorDoubleBus(context(8, 32, 1)),
                     missFactorDoubleBus(context(8)));
}

TEST(Superscalar, ExecutionTimeHandComputed)
{
    // E=1000, refs=300, HR=0.9 -> Lambda_m=30, base=(970)/2,
    // memory terms as in the scalar model.
    const Workload w =
        Workload::fromHitRatio(1000, 300, 0.9, 32, 0.5);
    const Machine m = context(8).machine;
    const double scalar = executionTimeFS(w, m);
    const double super = executionTimeFS(w, width(m, 2));
    EXPECT_DOUBLE_EQ(scalar - super, 970.0 / 2.0);
}

TEST(Superscalar, WiderIssueNeverSlower)
{
    const Workload w =
        Workload::fromHitRatio(1e6, 3e5, 0.95, 32, 0.5);
    const Machine m = context(8).machine;
    double previous = 1e18;
    for (double k : {1.0, 2.0, 4.0, 8.0}) {
        const double x = executionTimeFS(w, width(m, k));
        EXPECT_LT(x, previous);
        previous = x;
    }
}

TEST(Superscalar, MissFactorDecreasesTowardCostRatio)
{
    // r_k = (A - 1/k)/(B - 1/k): as the displaced hit time 1/k
    // shrinks, r decreases monotonically toward A/B — a wider
    // issue machine trades slightly less hit ratio per feature.
    const TradeoffContext ctx = context(8);
    const Machine wide = ctx.machine.withDoubledBus();
    const double floor =
        perMissCost(ctx.machine, ctx.machine.lineOverBus(),
                    ctx.alpha) /
        perMissCost(wide, wide.lineOverBus(), ctx.alpha);
    double previous = 1e18;
    for (double k : {1.0, 2.0, 4.0, 8.0}) {
        const double r = missFactorDoubleBus(context(8, 32, k));
        EXPECT_LT(r, previous) << k;
        EXPECT_GT(r, floor) << k;
        previous = r;
    }
}

TEST(Superscalar, InfiniteIssueLimitIsCostRatio)
{
    // k -> infinity: r -> A/B.
    const TradeoffContext ctx = context(8);
    const Machine wide = ctx.machine.withDoubledBus();
    const double a =
        perMissCost(ctx.machine, ctx.machine.lineOverBus(),
                    ctx.alpha);
    const double b =
        perMissCost(wide, wide.lineOverBus(), ctx.alpha);
    EXPECT_NEAR(missFactorDoubleBus(context(8, 32, 1e9)), a / b,
                1e-6);
}

TEST(Superscalar, CrossoverIsIssueWidthInvariant)
{
    // r_pipe = r_bus reduces to B_pipe = B_bus; the hit time
    // cancels, so the crossover is the same at every k.
    auto crossover = [](double k) {
        return crossoverCycleTime(
            context(8, 32, k), TradeFeature::PipelinedMemory,
            TradeFeature::DoubleBus, 2.0, 1.0, 2.0, 100.0);
    };
    const auto at1 = crossover(1);
    const auto at4 = crossover(4);
    const auto at16 = crossover(16);
    ASSERT_TRUE(at1.has_value());
    ASSERT_TRUE(at4.has_value());
    ASSERT_TRUE(at16.has_value());
    EXPECT_NEAR(*at4, *at1, 1e-6);
    EXPECT_NEAR(*at16, *at1, 1e-6);
    // And the k = 1 crossover matches the base model's.
    const auto base = crossoverCycleTime(
        context(8, 32), TradeFeature::PipelinedMemory,
        TradeFeature::DoubleBus, 2.0, 1.0, 2.0, 100.0);
    ASSERT_TRUE(base.has_value());
    EXPECT_NEAR(*at1, *base, 1e-6);
}

TEST(Superscalar, EquivalencePropertyStillHolds)
{
    // The Eq. 6 chain with r_k still equalises X_k.
    for (double k : {2.0, 4.0}) {
        const TradeoffContext ctx = context(6, 16, k);
        const double r = missFactorDoubleBus(ctx);
        const double hr1 = 0.95;
        const double hr2 = equivalentHitRatio(r, hr1);

        const Workload w1 =
            Workload::fromHitRatio(1e6, 3e5, hr1, 16, ctx.alpha);
        const Workload w2 =
            Workload::fromHitRatio(1e6, 3e5, hr2, 16, ctx.alpha);
        const double x1 = executionTimeFS(w1, ctx.machine);
        const Machine wide = ctx.machine.withDoubledBus();
        const double x2 = executionTimeFS(w2, wide);
        EXPECT_NEAR(x1, x2, x1 * 1e-10) << "k = " << k;
    }
}

TEST(Superscalar, RejectsWidthBelowOne)
{
    const Machine m = width(context(8).machine, 0.5);
    EXPECT_TRUE(isStatus(m.validate(), ErrorCode::InvalidArgument,
                         "issue width"));
}

TEST(Superscalar, RejectsCostBelowHitTime)
{
    // With mu_m barely above the hit time the denominator of the
    // generalised Eq. 3 can cross zero; that is a model-validity
    // error, not a number.
    Machine m;
    m.busWidth = 8;
    m.lineBytes = 8;
    m.cycleTime = 1.0;
    EXPECT_TRUE(throwsStatus(
        [&] { missFactor(m, 1.0, 0.0, m, 1.0, 0.0); },
        ErrorCode::OutOfRange, "per-miss"));
}

TEST(Superscalar, RejectsMachinesOfDifferentWidths)
{
    // Eq. 3 subtracts one hit time from both per-miss costs, so
    // both machines must issue at the same width.
    const Machine m = context(8).machine;
    EXPECT_TRUE(throwsStatus(
        [&] { missFactor(m, 8.0, 0.5, width(m, 2), 8.0, 0.5); },
        ErrorCode::InvalidArgument, "issue width"));
}

} // namespace
} // namespace uatm
