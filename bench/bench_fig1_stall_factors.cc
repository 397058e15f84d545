/**
 * @file
 * Figure 1 — stalling factor (as a percentage of the full-stalling
 * value L/D) versus memory cycle time for the BL, BNL1, BNL2 and
 * BNL3 features, averaged over six SPEC92-like programs on an
 * 8 KB two-way write-allocate cache with 32-byte lines and a
 * 4-byte bus, regenerated with the trace-driven timing engine.
 *
 * Paper shape to match: BL/BNL1/BNL2 very high (approaching 100 %
 * of L/D) and rising with the memory cycle time; BNL3 materially
 * lower at small cycle times (the 20-30 % read-latency reduction of
 * Summary bullet 3).
 */

#include <cstdio>

#include "common.hh"
#include "cpu/eq8_model.hh"
#include "cpu/phi_measurement.hh"
#include "exp/scenarios.hh"
#include "trace/generators.hh"

using namespace uatm;

int
main()
{
    bench::banner("Figure 1",
                  "stalling factor vs memory cycle time "
                  "(8KB 2-way, L=32, D=4, six profiles)");

    // Manifest: the machine every phi measurement below simulates
    // (mirrors measurePhi(); flush traffic suppressed per Eq. 8).
    {
        const PhiExperiment exp;
        MemoryConfig memory;
        memory.busWidthBytes = exp.busWidthBytes;
        memory.cycleTime = exp.cycleTime;
        WriteBufferConfig wbuf;
        wbuf.depth = 64;
        CpuConfig cpu;
        cpu.suppressFlushTraffic = true;
        bench::recordMachine(exp.cache, memory, wbuf, cpu);
        bench::recordWorkload("spec92-six-profile-average",
                              exp.seed, exp.refs);
    }

    const std::vector<Cycles> cycle_times = {4, 8, 12, 16, 24,
                                             32, 40, 48};
    const std::vector<StallFeature> features = {
        StallFeature::BL, StallFeature::BNL1, StallFeature::BNL2,
        StallFeature::BNL3};

    TextTable table({"mu_m", "BL %", "BNL1 %", "BNL2 %",
                     "BNL3 %"});
    AsciiChart chart(64, 18);
    chart.setTitle("Figure 1: stalling factor (% of L/D) vs "
                   "mu_m per 4 bytes");
    chart.setXLabel("memory cycle time per 4 bytes");
    chart.setYLabel("% of L/D");

    std::vector<ChartSeries> series = {
        {"BL", 'x', {}, {}},
        {"BNL1", 'o', {}, {}},
        {"BNL2", '+', {}, {}},
        {"BNL3", '.', {}, {}},
    };

    // Per-profile detail shown afterwards, as the paper averages
    // six programs with 50M instructions; we use shorter but
    // statistically stable windows.
    for (Cycles mu : cycle_times) {
        std::vector<std::string> row = {
            TextTable::num(static_cast<double>(mu), 0)};
        for (std::size_t i = 0; i < features.size(); ++i) {
            PhiExperiment exp;
            exp.feature = features[i];
            exp.cycleTime = mu;
            exp.refs = 60000;
            const auto avg = exp::measurePhiAllProfiles(exp).back();
            row.push_back(TextTable::num(avg.percentOfFull, 1));
            series[i].x.push_back(static_cast<double>(mu));
            series[i].y.push_back(avg.percentOfFull);
        }
        table.addRow(row);
    }
    bench::section("average stalling factor (% of L/D)");
    bench::emitTable(table);
    bench::exportCsv("fig1_stall_factors", table);

    for (auto &s : series)
        chart.addSeries(std::move(s));
    bench::emitChart(chart);

    bench::section("per-profile detail at mu_m = 8");
    TextTable detail({"program", "BL %", "BNL1 %", "BNL2 %",
                      "BNL3 %"});
    std::vector<std::vector<std::string>> rows;
    for (std::size_t i = 0; i < features.size(); ++i) {
        PhiExperiment exp;
        exp.feature = features[i];
        exp.cycleTime = 8;
        exp.refs = 60000;
        const auto results = exp::measurePhiAllProfiles(exp);
        for (std::size_t p = 0; p < results.size(); ++p) {
            if (i == 0)
                rows.push_back({results[p].workload});
            rows[p].push_back(
                TextTable::num(results[p].percentOfFull, 1));
        }
    }
    for (auto &row : rows)
        detail.addRow(row);
    bench::emitTable(detail);
    bench::exportCsv("fig1_per_profile_mu8", detail);

    bench::section("Eq. 8 static estimate vs engine (BNL1)");
    {
        TextTable eq8({"mu_m", "Eq.8 phi", "engine phi",
                       "gap %"});
        for (Cycles mu : {4u, 8u, 16u, 32u}) {
            double est_sum = 0.0;
            for (const auto &name : Spec92Profile::names()) {
                auto workload = Spec92Profile::make(name, 42);
                CacheConfig cache;
                cache.sizeBytes = 8 * 1024;
                cache.assoc = 2;
                cache.lineBytes = 32;
                est_sum += estimatePhiEq8(*workload, 60000,
                                          StallFeature::BNL1,
                                          cache, 4, mu)
                               .phi;
            }
            const double est =
                est_sum / Spec92Profile::names().size();
            PhiExperiment exp;
            exp.feature = StallFeature::BNL1;
            exp.cycleTime = mu;
            exp.refs = 60000;
            const double dyn =
                exp::measurePhiAllProfiles(exp).back().phi;
            eq8.addRow({TextTable::num(mu, 0),
                        TextTable::num(est, 3),
                        TextTable::num(dyn, 3),
                        TextTable::num(
                            100.0 * (est - dyn) / dyn, 1)});
        }
        bench::emitTable(eq8);
        bench::exportCsv("fig1_eq8_vs_engine", eq8);
    }

    bench::section("paper-vs-measured (shape)");
    {
        PhiExperiment exp;
        exp.feature = StallFeature::BNL3;
        exp.cycleTime = 8;
        exp.refs = 60000;
        const auto bnl3_all = exp::measurePhiAllProfiles(exp);
        const auto bnl3 = bnl3_all.back();
        // Final stat dump for the manifest: first profile's full
        // timing breakdown at the BNL3 operating point.
        bench::recordStats(bnl3_all.front().timing,
                           exp.cycleTime);
        const double reduction = 100.0 - bnl3.percentOfFull;
        bench::compareLine(
            "BNL3 read-latency reduction at mu_m < 15",
            "20-30 %", TextTable::num(reduction, 1) + " %",
            reduction > 10.0 && reduction < 50.0);

        exp.feature = StallFeature::BL;
        exp.cycleTime = 4;
        const double bl_small =
            exp::measurePhiAllProfiles(exp).back().percentOfFull;
        exp.cycleTime = 48;
        const double bl_large =
            exp::measurePhiAllProfiles(exp).back().percentOfFull;
        bench::compareLine("BL stalling rises with latency",
                           "rising toward 100 %",
                           TextTable::num(bl_small, 1) + " -> " +
                               TextTable::num(bl_large, 1) + " %",
                           bl_large > bl_small);
    }
    return 0;
}
