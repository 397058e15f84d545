/**
 * @file
 * Unit tests for design-point equivalence (Sec. 4.5 / Example 1)
 * and the cache-size model.
 */

#include <gtest/gtest.h>

#include "core/equivalence.hh"
#include "expect_status.hh"

namespace uatm {
namespace {

DesignPoint
basePoint(double mu_m = 1e6)
{
    DesignPoint p;
    p.machine.busWidth = 4;
    p.machine.lineBytes = 32;
    p.machine.cycleTime = mu_m;
    p.hitRatio = 0.91;
    return p;
}

// ------------------------------------------------------- CacheSizeModel

TEST(CacheSizeModel, InterpolatesAnchors)
{
    const auto model = CacheSizeModel::shortLevy();
    EXPECT_NEAR(model.hitRatioForSize(8 * 1024), 0.910, 1e-12);
    EXPECT_NEAR(model.hitRatioForSize(32 * 1024), 0.955, 1e-12);
    // Log-linear midpoint between 8K and 32K is 16K.
    EXPECT_NEAR(model.hitRatioForSize(16 * 1024),
                (0.910 + 0.955) / 2.0, 1e-12);
}

TEST(CacheSizeModel, ClampsOutsideRange)
{
    const auto model = CacheSizeModel::shortLevy();
    EXPECT_NEAR(model.hitRatioForSize(1024), 0.910, 1e-12);
    EXPECT_NEAR(model.hitRatioForSize(1 << 24), 0.9775, 1e-12);
}

TEST(CacheSizeModel, InverseRoundTrips)
{
    const auto model = CacheSizeModel::shortLevy();
    for (double hr : {0.92, 0.94, 0.955, 0.97}) {
        const double size = model.sizeForHitRatio(hr);
        EXPECT_NEAR(model.hitRatioForSize(size), hr, 1e-9);
    }
}

TEST(CacheSizeModel, RejectsUnsortedAnchors)
{
    EXPECT_TRUE(throwsStatus(
        [] {
            CacheSizeModel bad({SizePoint{1024, 0.9},
                                SizePoint{512, 0.95}});
        },
        ErrorCode::InvalidArgument, "ascending"));
}

TEST(CacheSizeModel, RejectsDecreasingHitRatio)
{
    EXPECT_TRUE(throwsStatus(
        [] {
            CacheSizeModel bad({SizePoint{512, 0.95},
                                SizePoint{1024, 0.9}});
        },
        ErrorCode::InvalidArgument, "non-decreasing"));
}

TEST(CacheSizeModel, RejectsASingleAnchor)
{
    EXPECT_TRUE(throwsStatus(
        [] { CacheSizeModel bad({SizePoint{1024, 0.9}}); },
        ErrorCode::InvalidArgument, "at least two anchor points"));
}

TEST(CacheSizeModel, RejectsHitRatioAboveOne)
{
    EXPECT_TRUE(throwsStatus(
        [] {
            CacheSizeModel bad({SizePoint{512, 0.95},
                                SizePoint{1024, 1.5}});
        },
        ErrorCode::InvalidArgument, "out of [0, 1]"));
}

// ----------------------------------------------------------- DesignPoint

TEST(DesignPoint, ExecutionTimeMatchesDirectModel)
{
    const DesignPoint p = basePoint(8);
    ApplicationShape app;
    const Workload w = Workload::fromHitRatio(
        app.instructions, app.dataRefs, p.hitRatio,
        p.machine.lineBytes, app.alpha);
    EXPECT_DOUBLE_EQ(designExecutionTime(p, app),
                     executionTimeFS(w, p.machine));
}

TEST(DesignPoint, DescribeShowsHitRatio)
{
    EXPECT_NE(basePoint().describe().find("HR="),
              std::string::npos);
}

// ----------------------------------------------- equivalent designs

TEST(Equivalence, DoubleBusDesignHasEqualExecutionTime)
{
    ApplicationShape app;
    for (double mu : {2.0, 5.0, 11.0}) {
        const DesignPoint narrow = basePoint(mu);
        const DesignPoint wide =
            equivalentDoubleBusDesign(narrow, app.alpha);
        EXPECT_DOUBLE_EQ(wide.machine.busWidth, 8.0);
        EXPECT_LT(wide.hitRatio, narrow.hitRatio);
        EXPECT_NEAR(designExecutionTime(narrow, app),
                    designExecutionTime(wide, app),
                    designExecutionTime(narrow, app) * 1e-10)
            << "mu_m = " << mu;
    }
}

TEST(Equivalence, NarrowBusDesignNeedsHigherHitRatio)
{
    ApplicationShape app;
    DesignPoint wide = basePoint(1e6);
    wide.machine.busWidth = 8;
    wide.hitRatio = 0.91;
    const DesignPoint narrow =
        equivalentNarrowBusDesign(wide, app.alpha);
    EXPECT_DOUBLE_EQ(narrow.machine.busWidth, 4.0);
    EXPECT_GT(narrow.hitRatio, wide.hitRatio);
    EXPECT_NEAR(designExecutionTime(narrow, app),
                designExecutionTime(wide, app),
                designExecutionTime(wide, app) * 1e-6);
}

TEST(Equivalence, RoundTripNarrowThenWide)
{
    ApplicationShape app;
    const DesignPoint narrow = basePoint(9);
    const DesignPoint wide =
        equivalentDoubleBusDesign(narrow, app.alpha);
    const DesignPoint back =
        equivalentNarrowBusDesign(wide, app.alpha);
    EXPECT_NEAR(back.hitRatio, narrow.hitRatio, 1e-9);
}

TEST(Equivalence, MeanMemoryDelayAlsoMatches)
{
    // Sec. 4.5: equal X implies equal mean memory delay.
    ApplicationShape app;
    const DesignPoint narrow = basePoint(6);
    const DesignPoint wide =
        equivalentDoubleBusDesign(narrow, app.alpha);
    EXPECT_NEAR(designMeanMemoryDelay(narrow, app),
                designMeanMemoryDelay(wide, app), 1e-9);
}

// ------------------------------------------------- Example 1 of the paper

TEST(Example1, Case1EightKWithWideBusMatches32KNarrow)
{
    // Case 1: 64-bit bus + 8K cache == 32-bit bus + 32K cache.
    // Short & Levy: 8K -> 91 %, 32K -> 95.5 %; the paper applies
    // the large-mu_m limit where the gain is 0.5 (1 - HR).
    const auto sizes = CacheSizeModel::shortLevy();

    DesignPoint wide;
    wide.machine.busWidth = 8;
    wide.machine.lineBytes = 32;
    wide.machine.cycleTime = 1e7; // the paper's limit regime
    wide.hitRatio = sizes.hitRatioForSize(8 * 1024);

    const DesignPoint narrow =
        equivalentNarrowBusDesign(wide, 0.5);
    // The narrow design needs HR ~ 95.5 %, i.e. a ~32K cache.
    EXPECT_NEAR(narrow.hitRatio, 0.955, 1e-3);
    const double size = designCacheSize(narrow, sizes);
    EXPECT_NEAR(size, 32.0 * 1024, 0.05 * 32 * 1024);
}

TEST(Example1, Case2ThirtyTwoKWideMatches128KNarrow)
{
    const auto sizes = CacheSizeModel::shortLevy();
    DesignPoint wide;
    wide.machine.busWidth = 8;
    wide.machine.lineBytes = 32;
    wide.machine.cycleTime = 1e7;
    wide.hitRatio = sizes.hitRatioForSize(32 * 1024);

    const DesignPoint narrow =
        equivalentNarrowBusDesign(wide, 0.5);
    EXPECT_NEAR(narrow.hitRatio, 0.9775, 1e-3);
    EXPECT_NEAR(designCacheSize(narrow, sizes), 128.0 * 1024,
                0.05 * 128 * 1024);
}

TEST(Equivalence, NarrowBusHitRatioNeverExceedsOne)
{
    // The OutOfRange exit for a narrow design above HR = 1 guards
    // a bound no input crosses: HR2 + (1 - 1/r)(1 - HR2) =
    // 1 - (1 - HR2)/r < 1 for every r > 0, and the rounded sum
    // stays at or below 1.  Push r from just past 1 to ~1e15
    // (mu_m just above the hit time) and HR2 to both ends.
    for (double mu : {1.0 + 1e-15, 1.0 + 1e-9, 2.0, 1e6}) {
        for (double hr : {0.0, 0.5, 0.999999999, 1.0}) {
            DesignPoint wide;
            wide.machine.busWidth = 8;
            wide.machine.lineBytes = 8;
            wide.machine.cycleTime = mu;
            wide.hitRatio = hr;
            const DesignPoint narrow =
                equivalentNarrowBusDesign(wide, 0.0);
            EXPECT_LE(narrow.hitRatio, 1.0)
                << "mu_m = " << mu << ", HR2 = " << hr;
            EXPECT_GE(narrow.hitRatio, hr);
        }
    }
}

TEST(Equivalence, ImpossibleCompensationIsFatal)
{
    // Halving the bus at a hit ratio so high that no physical hit
    // ratio can compensate must be rejected...  with HR2 close to
    // 1 the required gain stays below 1 - HR2, so instead check
    // the precondition on the bus width.
    DesignPoint tiny = basePoint();
    tiny.machine.busWidth = 4;
    EXPECT_DEATH(
        { equivalentNarrowBusDesign(tiny, 0.5); }, "halve");
}

} // namespace
} // namespace uatm
