/**
 * @file
 * Stalling-factor measurement harness (paper Sec. 4.2, Figure 1).
 *
 * Runs the timing engine over one SPEC92-like profile and reports
 * the empirical stalling factor phi.  Figure 1's average over the
 * six programs is exp::measurePhiAllProfiles (exp/scenarios.hh),
 * which runs this kernel once per profile on the scenario runner.
 */

#ifndef UATM_CPU_PHI_MEASUREMENT_HH
#define UATM_CPU_PHI_MEASUREMENT_HH

#include <cstdint>
#include <string>

#include "cache/config.hh"
#include "cpu/stall_feature.hh"
#include "cpu/timing_engine.hh"
#include "memory/timing.hh"

namespace uatm {

/** Parameters of one phi measurement. */
struct PhiExperiment
{
    /** Figure 1 setup: 8 KB, 2-way, 32 B lines, write-allocate. */
    CacheConfig cache;

    /** Bus width D (Figure 1 uses 4 bytes). */
    std::uint32_t busWidthBytes = 4;

    /** Memory cycle time mu_m to evaluate. */
    Cycles cycleTime = 8;

    StallFeature feature = StallFeature::BNL1;

    /** References simulated per program. */
    std::uint64_t refs = 200000;

    /** Workload seed. */
    std::uint64_t seed = 42;

    PhiExperiment();
};

/** Result of one phi measurement. */
struct PhiResult
{
    std::string workload;
    double phi = 0.0;
    /** phi as a percentage of its FS ceiling L/D. */
    double percentOfFull = 0.0;
    TimingStats timing;
};

/** Measure phi on one named SPEC92-like profile. */
PhiResult measurePhi(const PhiExperiment &experiment,
                     const std::string &profile_name);

} // namespace uatm

#endif // UATM_CPU_PHI_MEASUREMENT_HH
