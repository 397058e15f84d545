/**
 * @file
 * Pin-budget planner (Sec. 5.2's pin-count / chip-area argument):
 * a 64-bit external bus costs ~32 extra signal pins; an on-chip
 * cache costs area.  Given a hit-ratio-vs-size curve (measured
 * from a workload), this tool answers: at each cache size, is the
 * next performance increment cheaper in pins (wider bus) or in
 * area (bigger cache)?
 *
 * Reproduces the paper's observation that doubling a *small*
 * cache beats widening the bus, while for a *large* cache the
 * wider bus trades for a lot of area.  The size sweep shards
 * across --threads workers.
 *
 * Example:
 *   ./build/examples/pin_budget_planner --workload ear --mu 12 \
 *       --threads 4
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/equivalence.hh"
#include "exp/scenarios.hh"

#include "example_cli.hh"

using namespace uatm;

static int
run(int argc, char **argv)
{
    exp::GeometrySweep spec;
    spec.refs = 150000;
    Cycles mu = 12;
    examples::WorkloadCli workload{"ear", 5};
    examples::RunnerCli cli;
    obs::Flags flags(
        "pin_budget_planner",
        "Compare spending pins (bus width) vs chip area (cache "
        "size) at each design point.");
    workload.bind(flags);
    flags.add("mu", mu, "memory cycle time per bus transfer");
    flags.add("refs", spec.refs, "references to simulate", 1);
    cli.bind(flags);
    if (!cli.parse(flags, argc, argv))
        return 0;

    // 1. Measure the size -> hit-ratio curve for this workload,
    //    sharded by the runner.
    spec.base.assoc = 2;
    spec.base.lineBytes = 32;
    spec.workload = workload.spec();
    spec.values = {4096, 8192, 16384, 32768, 65536, 131072, 262144};
    spec.warmupRefs = spec.refs / 10;
    exp::Runner runner = cli.makeRunner();
    std::vector<SweepPoint> sweep;
    exp::runGeometrySweep(spec, runner, &sweep);

    std::vector<SizePoint> anchors;
    for (const auto &point : sweep) {
        const double hr =
            anchors.empty()
                ? point.hitRatio
                : std::max(point.hitRatio,
                           anchors.back().hitRatio);
        anchors.push_back(SizePoint{point.value, hr});
    }
    const CacheSizeModel curve(anchors);

    // 2. At each size: the cache size whose hit ratio equals the
    //    performance of doubling the bus instead (Eq. 7).
    exp::ResultTable table("pin_budget",
                           {"cache", "hr_pct", "bus_equiv_cache",
                            "area_factor", "verdict"});
    for (const auto &anchor : anchors) {
        if (anchor.sizeBytes == anchors.back().sizeBytes)
            break;
        DesignPoint wide;
        wide.machine.busWidth = 8;
        wide.machine.lineBytes = 32;
        wide.machine.cycleTime = mu;
        wide.hitRatio = anchor.hitRatio;
        const DesignPoint narrow =
            equivalentNarrowBusDesign(wide, 0.5);
        // The curve may saturate before reaching the required hit
        // ratio: then no buildable cache matches the wider bus.
        const bool saturated =
            narrow.hitRatio > anchors.back().hitRatio;
        const double equal_size =
            curve.sizeForHitRatio(narrow.hitRatio);
        const double factor =
            equal_size / static_cast<double>(anchor.sizeBytes);
        const bool area_cheap = !saturated && factor <= 4.0;
        table.addRow(
            {exp::Cell::text(
                 std::to_string(anchor.sizeBytes / 1024) + "K"),
             exp::Cell::num(anchor.hitRatio * 100, 2),
             saturated
                 ? exp::Cell::text("none (curve saturated)")
                 : exp::Cell::num(equal_size / 1024.0, 1),
             saturated ? exp::Cell::text("-")
                       : exp::Cell::num(factor, 2),
             exp::Cell::text(
                 area_cheap ? "grow the cache, save the pins"
                            : "widen the bus, save the area")});
    }
    cli.emit(table);

    if (cli.narrate())
        std::printf(
            "\nInterpretation (Sec. 5.2): the \"bus-equivalent "
            "cache\" column is the capacity (KB) a 32-bit design "
            "needs to match a 64-bit design at the row's size.  "
            "Small caches trade up cheaply (2-4x area beats 32 "
            "pins); once the curve flattens, the same pins buy "
            "more than any affordable area.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain(
        [&] { return run(argc, argv); });
}
