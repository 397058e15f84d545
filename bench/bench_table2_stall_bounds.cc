/**
 * @file
 * Table 2 — processor stalling features and their stalling-factor
 * bounds, with engine-measured phi values shown to fall inside the
 * bounds for the Figure 1 machine (8K 2-way 32B cache, D = 4).
 */

#include <cstdio>

#include "common.hh"
#include "cpu/phi_measurement.hh"
#include "exp/scenarios.hh"

using namespace uatm;

int
main()
{
    bench::banner("Table 2",
                  "processor stalling features: phi bounds and "
                  "measured values");

    const double line_over_bus = 32.0 / 4.0;

    // Manifest: the Figure 1 machine every phi measurement below
    // simulates (flush traffic suppressed per Eq. 8).
    {
        const PhiExperiment exp;
        MemoryConfig memory;
        memory.busWidthBytes = exp.busWidthBytes;
        memory.cycleTime = 8;
        WriteBufferConfig wbuf;
        wbuf.depth = 64;
        CpuConfig cpu;
        cpu.suppressFlushTraffic = true;
        bench::recordMachine(exp.cache, memory, wbuf, cpu);
        bench::recordWorkload("spec92-six-profile-average",
                              exp.seed, 60000);
    }

    bench::section("Table 2 (phi in units of mu_m, L/D = 8)");
    TextTable bounds({"feature", "description", "phi min",
                      "phi max"});
    const struct
    {
        StallFeature feature;
        const char *description;
    } rows[] = {
        {StallFeature::FS, "full stalling"},
        {StallFeature::BL, "bus-locked"},
        {StallFeature::BNL1, "bus-not-locked (whole-line wait)"},
        {StallFeature::BNL2, "bus-not-locked (arrived part ok)"},
        {StallFeature::BNL3, "bus-not-locked (chunk wait)"},
        {StallFeature::NB, "non-blocking"},
    };
    for (const auto &row : rows) {
        const PhiBounds b = phiBounds(row.feature, line_over_bus);
        bounds.addRow({stallFeatureName(row.feature),
                       row.description, TextTable::num(b.min, 1),
                       TextTable::num(b.max, 1)});
    }
    bench::emitTable(bounds);
    bench::exportCsv("table2_bounds", bounds);

    bench::section("measured phi (avg of six SPEC92-like "
                   "profiles, mu_m = 8)");
    TextTable measured({"feature", "phi", "% of L/D",
                        "within Table 2 bounds"});
    for (StallFeature f :
         {StallFeature::BL, StallFeature::BNL1, StallFeature::BNL2,
          StallFeature::BNL3, StallFeature::NB}) {
        PhiExperiment exp;
        exp.feature = f;
        exp.cycleTime = 8;
        exp.refs = 60000;
        const auto all = exp::measurePhiAllProfiles(exp);
        const auto avg = all.back();
        bench::recordStats(all.front().timing, exp.cycleTime);
        const PhiBounds b = phiBounds(f, line_over_bus);
        const bool ok = avg.phi >= b.min - 1e-9 &&
                        avg.phi <= b.max + 1e-9;
        measured.addRow({stallFeatureName(f),
                         TextTable::num(avg.phi, 3),
                         TextTable::num(avg.percentOfFull, 1),
                         ok ? "yes" : "NO"});
    }
    bench::emitTable(measured);
    bench::exportCsv("table2_measured", measured);
    return 0;
}
