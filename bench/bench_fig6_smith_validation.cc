/**
 * @file
 * Figure 6 — validation of the tradeoff methodology against
 * Smith's design-target line-size optima.  Four panels; for each,
 * the reduced memory delay of Eq. 19 is swept over the normalised
 * bus speed beta and the optimum is compared with Smith's Eq. 16
 * criterion (they must agree exactly), plus the beneficial bus-
 * speed range of Sec. 5.4.2.  A fifth, simulator-driven panel
 * repeats the exercise with MR(L) measured by our own cache model
 * instead of the reconstructed design-target tables.
 */

#include <cstdio>

#include "common.hh"
#include "exp/scenarios.hh"
#include "linesize/line_tradeoff.hh"

using namespace uatm;

namespace {

struct Panel
{
    const char *name;
    MissRatioTable table;
    double c_prime;
    double bus;
    double smith_beta;       ///< beta the paper annotates
    std::uint32_t smith_opt; ///< the paper's stated optimum
};

void
runPanel(const Panel &panel)
{
    bench::section(std::string(panel.name) + "  (" +
                   panel.table.name() +
                   ", c' = " + TextTable::num(panel.c_prime, 2) +
                   ", D = " + TextTable::num(panel.bus, 0) + ")");

    LineDelayModel model;
    model.c = panel.c_prime + 1.0;
    model.busWidth = panel.bus;

    const std::uint32_t base_line = 8;
    std::vector<std::string> header = {"beta"};
    for (std::uint32_t line : panel.table.lineSizes()) {
        if (line > base_line)
            header.push_back("L=" + std::to_string(line) +
                             " x100");
    }
    header.push_back("Eq.19 best");
    header.push_back("Smith best");
    TextTable table(std::move(header));

    bool all_agree = true;
    for (double beta = 0.5; beta <= 10.0; beta += 0.5) {
        model.beta = beta;
        std::vector<std::string> row = {TextTable::num(beta, 1)};
        for (std::uint32_t line : panel.table.lineSizes()) {
            if (line <= base_line)
                continue;
            row.push_back(TextTable::num(
                100.0 *
                    reducedDelay(panel.table, model, base_line,
                                 line),
                2));
        }
        const std::uint32_t ours =
            tradeoffOptimalLine(panel.table, model, base_line);
        const std::uint32_t smiths =
            smithOptimalLine(panel.table, model);
        // Compare on objective value: robust to exact ties.
        const double o1 = model.smithObjective(
            panel.table.missRatio(ours), ours);
        const double o2 = model.smithObjective(
            panel.table.missRatio(smiths), smiths);
        all_agree = all_agree && std::abs(o1 - o2) < 1e-9;
        row.push_back(std::to_string(ours));
        row.push_back(std::to_string(smiths));
        table.addRow(row);
    }
    bench::emitTable(table);
    bench::exportCsv(std::string("fig6_") + panel.name, table);

    model.beta = panel.smith_beta;
    const std::uint32_t at_anchor =
        smithOptimalLine(panel.table, model);
    bench::compareLine(
        "Smith optimum at beta = " +
            TextTable::num(panel.smith_beta, 0),
        std::to_string(panel.smith_opt) + " bytes",
        std::to_string(at_anchor) + " bytes",
        at_anchor == panel.smith_opt);
    bench::compareLine("Eq. 19 optimum == Smith optimum",
                       "exact agreement (Sec. 5.4.2)",
                       all_agree ? "exact" : "mismatch",
                       all_agree);

    // Beneficial bus-speed range for the anchor optimum.
    if (const auto range = beneficialBetaRange(
            panel.table, model, base_line, panel.smith_opt, 0.25,
            12.0)) {
        std::printf("beneficial beta range for %uB over %uB: "
                    "[%.2f, %.2f]\n",
                    panel.smith_opt, base_line, range->first,
                    range->second);
    }
}

} // namespace

int
main()
{
    bench::banner("Figure 6",
                  "validation with Smith's design-target line "
                  "sizes (four panels + simulator panel)");

    const Panel panels[] = {
        // (a) 16K, Delay = 360ns + 15ns/byte @ 60ns, D = 4.
        {"panel_a_16K_D4", MissRatioTable::designTarget16K(), 6.0,
         4.0, 2.0, 32},
        // (b) 8K, Delay = 160ns + 15ns/byte @ 40ns, D = 8.
        {"panel_b_8K_D8", MissRatioTable::designTarget8K(), 4.0,
         8.0, 3.0, 16},
        // (c) 16K, Delay = 600ns + 40ns/byte, D = 8, c' = 16.75.
        {"panel_c_16K_D8", MissRatioTable::designTarget16K(),
         16.75, 8.0, 1.0, 64},
        // (d) 8K, Delay = 360ns + 15ns/byte @ 60ns, D = 8.
        {"panel_d_8K_D8", MissRatioTable::designTarget8K(), 6.0,
         8.0, 2.0, 32},
    };
    for (const auto &panel : panels)
        runPanel(panel);

    // Simulator-driven panel: measure MR(L) with the cache model
    // on a SPEC92-like mix and repeat the validation.
    bench::section("simulator-measured MR(L), 16K 2-way");
    exp::GeometrySweep spec;
    spec.axis = exp::GeometrySweep::Axis::Line;
    spec.base.sizeBytes = 16 * 1024;
    spec.base.assoc = 2;
    spec.base.lineBytes = 32;
    spec.workload = exp::WorkloadSpec::spec92("nasa7", 2026);
    spec.values = {8, 16, 32, 64, 128};
    spec.refs = 120000;
    spec.warmupRefs = 10000;
    exp::Runner runner;
    std::vector<SweepPoint> sweep;
    exp::runGeometrySweep(spec, runner, &sweep);
    TextTable mr_table({"line", "miss ratio"});
    for (const auto &point : sweep)
        mr_table.addRow({std::to_string(point.value),
                         TextTable::num(point.missRatio, 4)});
    bench::emitTable(mr_table);
    bench::exportCsv("fig6_simulated_mr", mr_table);

    const auto measured =
        MissRatioTable::fromSweep("measured 16K", sweep);
    LineDelayModel model;
    model.c = 7.0;
    model.busWidth = 4.0;
    bool agree = true;
    for (double beta = 0.5; beta <= 10.0; beta += 0.25) {
        model.beta = beta;
        const auto ours = tradeoffOptimalLine(measured, model, 8);
        const auto smiths = smithOptimalLine(measured, model);
        const double o1 =
            model.smithObjective(measured.missRatio(ours), ours);
        const double o2 = model.smithObjective(
            measured.missRatio(smiths), smiths);
        agree = agree && std::abs(o1 - o2) < 1e-9;
    }
    bench::compareLine("Eq. 19 == Smith on measured MR(L)",
                       "exact agreement", agree ? "exact" : "no",
                       agree);
    return 0;
}
