/**
 * @file
 * Tests for the Eq. 8 static stalling-factor estimate, including
 * its cross-check against the timing engine's dynamic measurement
 * — the repo's validation of the paper's own Figure 1 method.
 */

#include <gtest/gtest.h>

#include "cpu/eq8_model.hh"
#include "cpu/phi_measurement.hh"
#include "expect_status.hh"
#include "trace/generators.hh"

namespace uatm {
namespace {

CacheConfig
fig1Cache()
{
    CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.assoc = 2;
    config.lineBytes = 32;
    return config;
}

MemoryReference
load(Addr addr, std::uint32_t gap = 0)
{
    return MemoryReference{addr, gap, 4, RefKind::Load};
}

TEST(Eq8, RejectsNonBnlFeatures)
{
    Trace t;
    EXPECT_TRUE(throwsStatus(
        [&] {
            estimatePhiEq8(t, 10, StallFeature::FS, fig1Cache(),
                           4, 8);
        },
        ErrorCode::InvalidArgument, "BNL"));
}

TEST(Eq8, NoMissesGivesZero)
{
    Trace t; // empty
    const auto est = estimatePhiEq8(t, 10, StallFeature::BNL1,
                                    fig1Cache(), 4, 8);
    EXPECT_EQ(est.misses, 0u);
    EXPECT_EQ(est.phi, 0.0);
}

TEST(Eq8, IsolatedMissesGivePhiOne)
{
    // Misses whose windows see no second access: phi = 1 exactly
    // (only the basic read-miss term).
    Trace t;
    for (int i = 0; i < 10; ++i)
        t.append(load(0x1000 * (i + 1), 200)); // windows all idle
    const auto est = estimatePhiEq8(t, 100, StallFeature::BNL1,
                                    fig1Cache(), 4, 8);
    EXPECT_EQ(est.misses, 10u);
    EXPECT_DOUBLE_EQ(est.phi, 1.0);
    EXPECT_EQ(est.stalledWindows, 0u);
}

TEST(Eq8, ImmediateReuseGivesNearFullWindow)
{
    // An access to the missing line one instruction later stalls
    // almost the whole (L/D - 1) mu_m window under BNL1:
    // phi ~ 1 + (56 - 1)/8 = 7.875.
    Trace t;
    t.append(load(0x000, 0));
    t.append(load(0x004, 0)); // dC = 1
    const auto est = estimatePhiEq8(t, 100, StallFeature::BNL1,
                                    fig1Cache(), 4, 8);
    EXPECT_EQ(est.misses, 1u);
    EXPECT_NEAR(est.phi, 1.0 + (56.0 - 1.0) / 8.0, 1e-12);
}

TEST(Eq8, Bnl3CountsOnlyTheChunkWait)
{
    // Same trace, BNL3: the second access needs chunk 1, which
    // arrives mu_m after the requested chunk: stall = max(1*8 -
    // 1, 0) = 7, phi = 1 + 7/8.
    Trace t;
    t.append(load(0x000, 0));
    t.append(load(0x004, 0));
    const auto est = estimatePhiEq8(t, 100, StallFeature::BNL3,
                                    fig1Cache(), 4, 8);
    EXPECT_NEAR(est.phi, 1.0 + 7.0 / 8.0, 1e-12);
}

TEST(Eq8, Bnl3RequestedChunkCostsNothing)
{
    // Re-touching the requested chunk itself: position 0, stall 0.
    Trace t;
    t.append(load(0x004, 0));
    t.append(load(0x004, 0));
    const auto est = estimatePhiEq8(t, 100, StallFeature::BNL3,
                                    fig1Cache(), 4, 8);
    EXPECT_DOUBLE_EQ(est.phi, 1.0);
}

TEST(Eq8, SecondMissStallsUntilPreviousFill)
{
    // A back-to-back miss pair: the second stalls the remaining
    // window under both variants.
    Trace t;
    t.append(load(0x000, 0));
    t.append(load(0x100, 0)); // second miss, dC = 1
    for (StallFeature f :
         {StallFeature::BNL1, StallFeature::BNL3}) {
        const auto est =
            estimatePhiEq8(t, 100, f, fig1Cache(), 4, 8);
        EXPECT_EQ(est.misses, 2u);
        // Only the first window contributes (the second is open
        // at end of trace): (56 - 1)/(2 * 8) + 1.
        EXPECT_NEAR(est.phi, 1.0 + 55.0 / 16.0, 1e-12)
            << stallFeatureName(f);
    }
}

TEST(Eq8, PhiWithinTable2Bounds)
{
    for (const auto &name : Spec92Profile::names()) {
        auto workload = Spec92Profile::make(name, 21);
        const auto est = estimatePhiEq8(
            *workload, 30000, StallFeature::BNL1, fig1Cache(), 4,
            8);
        EXPECT_GE(est.phi, 1.0) << name;
        EXPECT_LE(est.phi, 8.0) << name;
    }
}

TEST(Eq8, TracksTheEngineMeasurement)
{
    // The static Eq. 8 estimate and the engine's dynamic phi
    // should agree to within the approximation error of "one
    // cycle per instruction inside the window".
    for (const auto &name : Spec92Profile::names()) {
        for (Cycles mu : {4u, 8u, 16u}) {
            auto workload = Spec92Profile::make(name, 33);
            const auto est = estimatePhiEq8(
                *workload, 30000, StallFeature::BNL1, fig1Cache(),
                4, mu);

            PhiExperiment exp;
            exp.feature = StallFeature::BNL1;
            exp.cycleTime = mu;
            exp.refs = 30000;
            exp.seed = 33;
            const auto engine = measurePhi(exp, name);

            EXPECT_NEAR(est.phi, engine.phi,
                        0.22 * engine.phi + 0.3)
                << name << " mu=" << mu;
        }
    }
}

TEST(Eq8, BlStallsOnAnyAccess)
{
    // Under BL even an unrelated hit stalls to completion:
    // second ref hits a different, already-resident line.
    Trace t;
    t.append(load(0x200, 50)); // warm an unrelated line
    t.append(load(0x000, 50)); // the measured miss (window open)
    t.append(load(0x204, 0));  // unrelated hit, dC = 1
    const auto est = estimatePhiEq8(t, 100, StallFeature::BL,
                                    fig1Cache(), 4, 8);
    // Window contributions: miss at 0x200's window closed by the
    // 0x000 access at dC=51 (no stall, window=56 > 51 gives 5):
    // max(56-51,0)=5; miss 0x000's window: max(56-1,0)=55.
    EXPECT_EQ(est.misses, 2u);
    EXPECT_NEAR(est.phi, 1.0 + (5.0 + 55.0) / (2.0 * 8.0),
                1e-12);
}

TEST(Eq8, Bnl2ArrivedChunkProceeds)
{
    // Re-touching the requested chunk after it arrived: BNL2
    // proceeds (stall 0); touching a later chunk stalls to
    // completion.
    Trace t1;
    t1.append(load(0x004, 0));
    t1.append(load(0x004, 0)); // chunk position 0, arrival 0
    const auto arrived = estimatePhiEq8(
        t1, 100, StallFeature::BNL2, fig1Cache(), 4, 8);
    EXPECT_DOUBLE_EQ(arrived.phi, 1.0);

    Trace t2;
    t2.append(load(0x000, 0));
    t2.append(load(0x01c, 0)); // position 7, arrival 56 > dC=1
    const auto waiting = estimatePhiEq8(
        t2, 100, StallFeature::BNL2, fig1Cache(), 4, 8);
    EXPECT_NEAR(waiting.phi, 1.0 + 55.0 / 8.0, 1e-12);
}

TEST(Eq8, FeatureOrderingHolds)
{
    // Static estimates preserve the BL >= BNL1 >= BNL2 >= BNL3
    // ordering on every profile.
    for (const auto &name : Spec92Profile::names()) {
        double previous = 1e18;
        for (StallFeature f :
             {StallFeature::BL, StallFeature::BNL1,
              StallFeature::BNL2, StallFeature::BNL3}) {
            auto workload = Spec92Profile::make(name, 71);
            const double phi =
                estimatePhiEq8(*workload, 20000, f, fig1Cache(),
                               4, 8)
                    .phi;
            EXPECT_LE(phi, previous + 1e-9)
                << name << " " << stallFeatureName(f);
            previous = phi;
        }
    }
}

TEST(Eq8, GrowsWithMemoryCycleTime)
{
    auto phi_at = [](Cycles mu) {
        auto workload = Spec92Profile::make("nasa7", 5);
        return estimatePhiEq8(*workload, 30000,
                              StallFeature::BNL1, fig1Cache(), 4,
                              mu)
            .phi;
    };
    EXPECT_LT(phi_at(4), phi_at(16));
    EXPECT_LT(phi_at(16), phi_at(48));
}

} // namespace
} // namespace uatm
