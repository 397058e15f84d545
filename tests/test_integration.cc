/**
 * @file
 * Integration tests: the analytic tradeoff model (src/core) against
 * the trace-driven timing engine (src/cpu) on the SPEC92-like
 * workloads — the repo's substitute for the paper's trace-driven
 * validation.
 */

#include <gtest/gtest.h>

#include "core/execution_time.hh"
#include "core/tradeoff.hh"
#include "cpu/phi_measurement.hh"
#include "cpu/timing_engine.hh"
#include "exp/scenarios.hh"
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

MemoryConfig
memory(Cycles mu_m, std::uint32_t bus = 4, bool pipelined = false)
{
    MemoryConfig config;
    config.busWidthBytes = bus;
    config.cycleTime = mu_m;
    config.pipelined = pipelined;
    config.pipelineInterval = 2;
    return config;
}

constexpr std::uint64_t kRefs = 60000;

/**
 * For a full-stalling cache with no write buffer the engine must
 * reproduce Eq. 2 exactly, on every SPEC92-like profile.
 */
TEST(Integration, EngineMatchesEq2ExactlyForFS)
{
    for (const auto &name : Spec92Profile::names()) {
        auto workload = Spec92Profile::make(name, 77);
        CpuConfig cpu;
        cpu.feature = StallFeature::FS;
        TimingEngine engine(fig1Cache(), memory(6),
                            WriteBufferConfig{0, true}, cpu);
        const auto stats = engine.run(*workload, kRefs);
        const auto &cs = engine.cacheStats();

        const std::uint64_t expected =
            (cs.instructions - cs.fills) + cs.fills * 8 * 6 +
            cs.writebacks * 8 * 6;
        EXPECT_EQ(stats.cycles, expected) << name;
    }
}

/**
 * Same exactness with a pipelined memory: per fill and per flush
 * the cost is mu_p = mu_m + q(L/D - 1) (Eq. 9).
 */
TEST(Integration, EngineMatchesPipelinedModelForFS)
{
    auto workload = Spec92Profile::make("swm256", 31);
    CpuConfig cpu;
    cpu.feature = StallFeature::FS;
    TimingEngine engine(fig1Cache(), memory(6, 4, true),
                        WriteBufferConfig{0, true}, cpu);
    const auto stats = engine.run(*workload, kRefs);
    const auto &cs = engine.cacheStats();

    const std::uint64_t mu_p = 6 + 2 * (8 - 1);
    const std::uint64_t expected =
        (cs.instructions - cs.fills) + cs.fills * mu_p +
        cs.writebacks * mu_p;
    EXPECT_EQ(stats.cycles, expected);
}

/**
 * The engine-measured bus-doubling benefit equals the analytic
 * prediction: X(D) - X(2D) = fills * (L/D - L/2D) mu_m
 *                          + writebacks * (L/D - L/2D) mu_m.
 */
TEST(Integration, BusDoublingBenefitMatchesModel)
{
    auto workload = Spec92Profile::make("nasa7", 19);
    CpuConfig cpu;
    cpu.feature = StallFeature::FS;

    TimingEngine narrow(fig1Cache(), memory(8, 4),
                        WriteBufferConfig{0, true}, cpu);
    const auto x_narrow = narrow.run(*workload, kRefs);
    const auto cs = narrow.cacheStats();

    TimingEngine wide(fig1Cache(), memory(8, 8),
                      WriteBufferConfig{0, true}, cpu);
    const auto x_wide = wide.run(*workload, kRefs);

    const std::uint64_t expected_saving =
        cs.fills * (8 - 4) * 8 + cs.writebacks * (8 - 4) * 8;
    EXPECT_EQ(x_narrow.cycles - x_wide.cycles, expected_saving);
}

/**
 * A deep read-bypassing write buffer lands between the analytic
 * best case (flushes fully hidden) and the no-buffer engine run.
 */
TEST(Integration, WriteBufferBracketsAnalyticBestCase)
{
    // "ear" has the paper-typical low miss density, so the bus has
    // idle cycles for the buffer to drain into; the paper's
    // best-case curve assumes exactly that regime (Sec. 4.3).
    auto workload = Spec92Profile::make("ear", 23);
    CpuConfig cpu;
    cpu.feature = StallFeature::FS;

    TimingEngine buffered(fig1Cache(), memory(8),
                          WriteBufferConfig{64, true}, cpu);
    const auto x_buf = buffered.run(*workload, kRefs);
    const auto cs = buffered.cacheStats();

    TimingEngine sync(fig1Cache(), memory(8),
                      WriteBufferConfig{0, true}, cpu);
    const auto x_sync = sync.run(*workload, kRefs);

    // Analytic best case: all flush cycles removed.
    const std::uint64_t best =
        (cs.instructions - cs.fills) + cs.fills * 8 * 8;
    EXPECT_GE(x_buf.cycles, best);
    EXPECT_LT(x_buf.cycles, x_sync.cycles);
    // The buffer should hide the large majority of flush cycles.
    const double hidden =
        static_cast<double>(x_sync.cycles - x_buf.cycles) /
        static_cast<double>(x_sync.cycles - best);
    EXPECT_GT(hidden, 0.6);
}

/**
 * Figure 1's harness: measured phi lies inside Table 2's bounds
 * for every feature and profile.
 */
TEST(Integration, MeasuredPhiRespectsTable2)
{
    for (StallFeature f :
         {StallFeature::BL, StallFeature::BNL1, StallFeature::BNL2,
          StallFeature::BNL3}) {
        PhiExperiment exp;
        exp.feature = f;
        exp.cycleTime = 8;
        exp.refs = 30000;
        for (const auto &name : Spec92Profile::names()) {
            const auto result = measurePhi(exp, name);
            EXPECT_GE(result.phi, 1.0 - 1e-9)
                << stallFeatureName(f) << " " << name;
            EXPECT_LE(result.phi, 8.0 + 1e-9)
                << stallFeatureName(f) << " " << name;
        }
    }
}

/**
 * Figure 1's ordering: BL stalls at least as much as BNL1, which
 * stalls at least as much as BNL2, then BNL3 (averaged over the
 * six profiles).
 */
TEST(Integration, PhiOrderingAcrossFeatures)
{
    auto average = [](StallFeature f, Cycles mu) {
        PhiExperiment exp;
        exp.feature = f;
        exp.cycleTime = mu;
        exp.refs = 30000;
        return exp::measurePhiAllProfiles(exp).back().phi;
    };
    for (Cycles mu : {4u, 12u, 24u}) {
        const double bl = average(StallFeature::BL, mu);
        const double bnl1 = average(StallFeature::BNL1, mu);
        const double bnl2 = average(StallFeature::BNL2, mu);
        const double bnl3 = average(StallFeature::BNL3, mu);
        EXPECT_GE(bl + 1e-9, bnl1) << mu;
        EXPECT_GE(bnl1 + 1e-9, bnl2) << mu;
        EXPECT_GE(bnl2 + 1e-9, bnl3) << mu;
    }
}

/**
 * Figure 1's trend: longer memory latency produces more stalling
 * (phi as a fraction of L/D grows with mu_m) for BL and BNL1.
 */
TEST(Integration, PhiGrowsWithMemoryCycleTime)
{
    for (StallFeature f : {StallFeature::BL, StallFeature::BNL1}) {
        PhiExperiment exp;
        exp.feature = f;
        exp.refs = 30000;
        exp.cycleTime = 4;
        const double at4 =
            exp::measurePhiAllProfiles(exp).back().percentOfFull;
        exp.cycleTime = 24;
        const double at24 =
            exp::measurePhiAllProfiles(exp).back().percentOfFull;
        EXPECT_GT(at24, at4) << stallFeatureName(f);
    }
}

/**
 * Summary bullet 3: BNL3 achieves a meaningful (paper: 20-30 %)
 * reduction of the FS read-miss latency at small memory cycle
 * times.  Our synthetic traces land in a compatible band.
 */
TEST(Integration, Bnl3ReducesReadMissLatency)
{
    PhiExperiment exp;
    exp.feature = StallFeature::BNL3;
    exp.cycleTime = 8; // < 15 cycles, the claim's regime
    exp.refs = 40000;
    const auto avg = exp::measurePhiAllProfiles(exp).back();
    const double reduction = 1.0 - avg.phi / 8.0;
    EXPECT_GT(reduction, 0.10);
    EXPECT_LT(reduction, 0.50);
}

/**
 * The analytic partial-stall tradeoff, fed with the *measured*
 * phi, predicts the engine's BNL1 speedup over FS within a few
 * percent — closing the loop between Secs. 4.2 and 5.3.
 */
TEST(Integration, MeasuredPhiPredictsBnl1Speedup)
{
    // With flush traffic factored out (the regime of Eq. 8 and
    // Sec. 4.2), the measured phi predicts the FS -> BNL1 saving
    // exactly: X_FS - X_BNL = fills * (L/D - phi) * mu_m.
    const Cycles mu_m = 12;
    auto workload = Spec92Profile::make("doduc", 41);

    CpuConfig fs_cpu;
    fs_cpu.feature = StallFeature::FS;
    fs_cpu.suppressFlushTraffic = true;
    TimingEngine fs(fig1Cache(), memory(mu_m),
                    WriteBufferConfig{64, true}, fs_cpu);
    const auto x_fs = fs.run(*workload, kRefs);

    CpuConfig bnl_cpu;
    bnl_cpu.feature = StallFeature::BNL1;
    bnl_cpu.suppressFlushTraffic = true;
    TimingEngine bnl(fig1Cache(), memory(mu_m),
                     WriteBufferConfig{64, true}, bnl_cpu);
    const auto x_bnl = bnl.run(*workload, kRefs);

    const double phi = x_bnl.phi(mu_m);
    const double predicted_saving =
        static_cast<double>(x_bnl.fills) * (8.0 - phi) *
        static_cast<double>(mu_m);
    const double actual_saving =
        static_cast<double>(x_fs.cycles) -
        static_cast<double>(x_bnl.cycles);
    EXPECT_NEAR(actual_saving, predicted_saving, 1.0);
}

/**
 * Workload::fromCacheRun + Eq. 2 reproduce the engine exactly —
 * the bridge the benchmark harness relies on.
 */
TEST(Integration, WorkloadExtractionClosesTheLoop)
{
    auto workload = Spec92Profile::make("ear", 3);
    CpuConfig cpu;
    cpu.feature = StallFeature::FS;
    TimingEngine engine(fig1Cache(), memory(10),
                        WriteBufferConfig{0, true}, cpu);
    const auto stats = engine.run(*workload, kRefs);

    const Workload w =
        Workload::fromCacheRun(engine.cacheStats(), 32);
    Machine m;
    m.busWidth = 4;
    m.lineBytes = 32;
    m.cycleTime = 10;
    const double x = executionTimeFS(w, m);
    EXPECT_NEAR(x, static_cast<double>(stats.cycles),
                static_cast<double>(stats.cycles) * 1e-9);
}

} // namespace
} // namespace uatm
