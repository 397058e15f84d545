/**
 * @file
 * Tests for reuse-distance profiles and the synthesizing workload:
 * profile validation and JSON, measure() on known streams, and the
 * synthesis round-trip cross-checked against the Mattson
 * stack-distance engine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "cache/stack_sim.hh"
#include "trace/reuse_distance.hh"
#include "trace/source.hh"
#include "util/random.hh"

namespace uatm {
namespace {

// ----------------------------------------------------- ReuseProfile

TEST(ReuseProfile, GeometricIsNormalizedWithTheRequestedColdMass)
{
    const ReuseProfile profile =
        ReuseProfile::geometric(32, 0.9, 0.05);
    ASSERT_TRUE(profile.validate().ok());
    ASSERT_EQ(profile.depth(), 32u);
    EXPECT_DOUBLE_EQ(profile.coldWeight, 0.05);
    EXPECT_NEAR(profile.cdfAt(32), 0.95, 1e-12);
    // Weights decay geometrically.
    for (std::size_t d = 1; d < profile.depth(); ++d)
        EXPECT_NEAR(profile.weights[d],
                    profile.weights[d - 1] * 0.9, 1e-12)
            << d;
    // The CDF is monotone in the associativity.
    for (std::size_t a = 1; a <= 32; ++a)
        EXPECT_GE(profile.cdfAt(a), profile.cdfAt(a - 1));
}

TEST(ReuseProfile, ValidateCatchesBadWeights)
{
    ReuseProfile empty;
    EXPECT_FALSE(empty.validate().ok());

    ReuseProfile negative;
    negative.weights = {0.5, -0.1};
    EXPECT_FALSE(negative.validate().ok());

    ReuseProfile nan;
    nan.weights = {std::nan("")};
    EXPECT_FALSE(nan.validate().ok());

    ReuseProfile bad_cold;
    bad_cold.weights = {1.0};
    bad_cold.coldWeight = -0.5;
    EXPECT_FALSE(bad_cold.validate().ok());

    ReuseProfile zero_mass;
    zero_mass.weights = {0.0, 0.0};
    EXPECT_FALSE(zero_mass.validate().ok());
}

TEST(ReuseProfile, JsonRoundTrips)
{
    const ReuseProfile profile =
        ReuseProfile::geometric(16, 0.85, 0.1);
    const auto back =
        ReuseProfile::fromJsonText(profile.toJsonText());
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back.value().depth(), profile.depth());
    EXPECT_NEAR(back.value().coldWeight, profile.coldWeight, 1e-9);
    for (std::size_t d = 0; d < profile.depth(); ++d)
        EXPECT_NEAR(back.value().weights[d], profile.weights[d],
                    1e-9)
            << d;
}

TEST(ReuseProfile, FromJsonRejectsMalformedDocuments)
{
    for (const char *bad :
         {"nonsense", "[1,2]", "{\"cold\":0.1}",
          "{\"weights\":7}", "{\"weights\":[\"x\"]}",
          "{\"weights\":[0.5],\"cold\":\"zero\"}",
          "{\"weights\":[-1],\"cold\":0}"}) {
        EXPECT_FALSE(ReuseProfile::fromJsonText(bad).ok()) << bad;
    }
}

TEST(ReuseProfile, MeasureRecoversAKnownAlternatingStream)
{
    // L0 L1 L0 L1 ...: two cold accesses, then always distance 1.
    Trace trace;
    constexpr std::size_t kRefs = 1000;
    for (std::size_t i = 0; i < kRefs; ++i) {
        MemoryReference ref;
        ref.size = 4;
        ref.addr = (i % 2) * 64;
        trace.append(ref);
    }
    const auto profile =
        ReuseProfile::measure(trace, kRefs, 64, 8);
    ASSERT_TRUE(profile.ok());
    EXPECT_NEAR(profile.value().coldWeight, 2.0 / kRefs, 1e-12);
    EXPECT_NEAR(profile.value().weights[1],
                (kRefs - 2.0) / kRefs, 1e-12);
    EXPECT_DOUBLE_EQ(profile.value().weights[0], 0.0);
}

TEST(ReuseProfile, MeasureFoldsDeepReuseIntoCold)
{
    // Cycle over 8 lines: every reuse is at distance 7, which a
    // depth-4 profile cannot express.
    Trace trace;
    for (std::size_t i = 0; i < 800; ++i) {
        MemoryReference ref;
        ref.size = 4;
        ref.addr = (i % 8) * 32;
        trace.append(ref);
    }
    const auto profile = ReuseProfile::measure(trace, 800, 32, 4);
    ASSERT_TRUE(profile.ok());
    EXPECT_DOUBLE_EQ(profile.value().coldWeight, 1.0);
    EXPECT_DOUBLE_EQ(profile.value().cdfAt(4), 0.0);
}

TEST(ReuseProfile, MeasureRejectsBadArguments)
{
    Trace empty;
    EXPECT_FALSE(ReuseProfile::measure(empty, 0, 32, 8).ok());
    EXPECT_FALSE(ReuseProfile::measure(empty, 10, 48, 8).ok());
    EXPECT_FALSE(ReuseProfile::measure(empty, 10, 32, 0).ok());
    EXPECT_FALSE(ReuseProfile::measure(empty, 10, 32, 8).ok());
}

// ------------------------------------------ ReuseDistanceWorkload

ReuseDistanceWorkload::Config
synthConfig()
{
    ReuseDistanceWorkload::Config config;
    config.profile = ReuseProfile::geometric(32, 0.9, 0.05);
    config.lineBytes = 32;
    return config;
}

TEST(ReuseDistanceWorkload, SynthesisRoundTripsTheProfile)
{
    const auto config = synthConfig();
    ReuseDistanceWorkload gen(config, Rng(41));
    constexpr std::uint64_t kRefs = 60000;
    const auto measured = ReuseProfile::measure(
        gen, kRefs, config.lineBytes, config.profile.depth());
    ASSERT_TRUE(measured.ok());

    // The measured histogram converges to the target (warmup
    // transients and sampling noise keep it from being exact).
    EXPECT_NEAR(measured.value().coldWeight,
                config.profile.coldWeight, 0.03);
    for (std::size_t a : {1u, 2u, 4u, 8u, 16u, 32u})
        EXPECT_NEAR(measured.value().cdfAt(a),
                    config.profile.cdfAt(a), 0.03)
            << "assoc " << a;
}

TEST(ReuseDistanceWorkload, StackSimSeesTheTargetHitRatios)
{
    // The paper-facing verification: a fully-associative LRU cache
    // of size A over the synthesized stream hits exactly when the
    // sampled distance is < A, so the Mattson one-pass surface
    // must measure the profile's CDF at every A.
    const auto config = synthConfig();
    ReuseDistanceWorkload gen(config, Rng(43));

    GeometryGrid grid;
    grid.lineBytes = config.lineBytes;
    grid.setCounts = {1};
    grid.assocs = {1, 2, 4, 8, 16, 32};
    constexpr std::uint64_t kRefs = 50000;
    const GeometryHitSurface surface =
        runStackSim(grid, gen, kRefs);

    for (std::uint32_t assoc : grid.assocs) {
        const double hit_ratio =
            static_cast<double>(surface.stats(1, assoc).hits) /
            static_cast<double>(kRefs);
        EXPECT_NEAR(hit_ratio, config.profile.cdfAt(assoc), 0.03)
            << "assoc " << assoc;
    }
}

TEST(ReuseDistanceWorkload, MeasureAndStackSimAgreeExactly)
{
    // measure() and the stack engine walk the same LRU stack, so
    // on the SAME stream their counts must agree to the reference:
    // hits(assoc) == refs * cdf(assoc) of the measured profile.
    const auto config = synthConfig();
    constexpr std::uint64_t kRefs = 20000;

    ReuseDistanceWorkload for_measure(config, Rng(47));
    const auto measured =
        ReuseProfile::measure(for_measure, kRefs,
                              config.lineBytes,
                              config.profile.depth());
    ASSERT_TRUE(measured.ok());

    ReuseDistanceWorkload for_stack(config, Rng(47));
    GeometryGrid grid;
    grid.lineBytes = config.lineBytes;
    grid.setCounts = {1};
    grid.assocs = {1, 4, 16, 32};
    const GeometryHitSurface surface =
        runStackSim(grid, for_stack, kRefs);

    for (std::uint32_t assoc : grid.assocs) {
        const double expected_hits =
            measured.value().cdfAt(assoc) *
            static_cast<double>(kRefs);
        EXPECT_NEAR(
            static_cast<double>(surface.stats(1, assoc).hits),
            expected_hits, 0.5)
            << "assoc " << assoc;
    }
}

TEST(ReuseDistanceWorkload, ResetRewinds)
{
    ReuseDistanceWorkload gen(synthConfig(), Rng(53));
    const auto head = gen.drain(1000);
    gen.reset();
    EXPECT_EQ(gen.drain(1000), head);
}

TEST(ReuseDistanceWorkload, StoreFractionIsHonoured)
{
    auto config = synthConfig();
    config.storeFraction = 0.0;
    ReuseDistanceWorkload loads_only(config, Rng(59));
    for (int i = 0; i < 2000; ++i)
        EXPECT_EQ(loads_only.next()->kind, RefKind::Load);

    config.storeFraction = 0.5;
    ReuseDistanceWorkload mixed(config, Rng(59));
    std::size_t stores = 0;
    for (int i = 0; i < 20000; ++i)
        stores += mixed.next()->kind == RefKind::Store;
    EXPECT_NEAR(static_cast<double>(stores) / 20000, 0.5, 0.03);
}

} // namespace
} // namespace uatm
