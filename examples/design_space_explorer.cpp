/**
 * @file
 * Design-space explorer: sweep (cache size x bus width x stalling
 * feature x write buffer) through the trace-driven timing engine
 * on a chosen SPEC92-like workload and report execution time, CPI
 * and mean memory delay for each design — the experiment a
 * microprocessor architect would run with this library when
 * deciding where to spend pins and chip area (Sec. 5.2).
 *
 * The 24-point grid is a declarative scenario sharded across
 * --threads workers; the merged table is identical at any thread
 * count.
 *
 * Example:
 *   ./build/examples/design_space_explorer --workload doduc \
 *       --mu 8 --refs 100000 --threads 4 --format csv
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "cpu/timing_engine.hh"
#include "exp/runner.hh"
#include "util/table.hh"

#include "example_cli.hh"

using namespace uatm;

static int
run(int argc, char **argv)
{
    exp::Scenario scenario(
        "design_space",
        "cache size x bus width x stall feature x write buffer");
    scenario.refs = 100000;
    scenario.cache.assoc = 2;
    scenario.cache.lineBytes = 32;
    scenario.memory.cycleTime = 8;
    scenario.memory.pipelineInterval = 2;
    scenario.writeBuffer.readBypass = true;

    examples::WorkloadCli workload_cli{"doduc", 1};
    examples::RunnerCli cli;
    obs::Flags flags(
        "design_space_explorer",
        "Sweep cache size, bus width and stalling features "
        "through the timing engine.");
    workload_cli.bind(flags);
    flags.add("mu", scenario.memory.cycleTime,
              "memory cycle time per bus transfer");
    flags.add("refs", scenario.refs, "references to simulate", 1);
    flags.add("line", scenario.cache.lineBytes,
              "cache line size in bytes");
    flags.add("pipelined", scenario.memory.pipelined,
              "use a pipelined memory (q=2)");
    cli.bind(flags);
    if (!cli.parse(flags, argc, argv))
        return 0;

    const auto workload = workload_cli.spec();
    scenario.workload = workload;

    scenario.sweepLabeled(
        "cache", {{"8K", 8192}, {"32K", 32768}, {"128K", 131072}},
        [](exp::Point &point, const exp::AxisValue &v) {
            point.cache.sizeBytes =
                static_cast<std::uint64_t>(v.value);
        });
    scenario.sweepLabeled(
        "bus", {{"32-bit", 4}, {"64-bit", 8}},
        [](exp::Point &point, const exp::AxisValue &v) {
            point.memory.busWidthBytes =
                static_cast<std::uint32_t>(v.value);
        });
    scenario.sweepLabeled(
        "feature",
        {{stallFeatureName(StallFeature::FS),
          static_cast<double>(StallFeature::FS)},
         {stallFeatureName(StallFeature::BNL3),
          static_cast<double>(StallFeature::BNL3)}},
        [](exp::Point &point, const exp::AxisValue &v) {
            point.cpu.feature = static_cast<StallFeature>(
                static_cast<int>(v.value));
        });
    scenario.sweepLabeled(
        "wbuf", {{"-", 0}, {"8", 8}},
        [](exp::Point &point, const exp::AxisValue &v) {
            point.writeBuffer.depth =
                static_cast<std::uint32_t>(v.value);
        });

    if (cli.narrate())
        std::printf("workload %s, mu_m = %" PRIu64 ", %" PRIu64
                    " refs, L = %u\n\n",
                    workload.describe().c_str(),
                    scenario.memory.cycleTime, scenario.refs,
                    scenario.cache.lineBytes);

    exp::Runner runner = cli.makeRunner();
    cli.emit(runner.run(
        scenario, {"hr_pct", "cycles", "cpi", "mem_delay"},
        [](const exp::Point &point) {
            TimingEngine engine(point.cache, point.memory,
                                point.writeBuffer, point.cpu);
            auto workload = okOrThrow(point.workload.make());
            const auto stats = engine.run(*workload, point.refs);
            return std::vector<exp::Cell>{
                exp::Cell::num(
                    engine.cacheStats().hitRatio() * 100, 2),
                exp::Cell::integer(
                    static_cast<std::int64_t>(stats.cycles)),
                exp::Cell::num(stats.cpi(), 3),
                exp::Cell::num(stats.meanMemoryDelay(), 3)};
        }),
        runner);

    if (cli.narrate())
        std::printf(
            "\nReading the table: designs with equal cycle "
            "counts are equal-performance design points in "
            "the sense of Sec. 4.5 — e.g. compare a wide-bus "
            "small cache against a narrow-bus larger cache "
            "(Example 1).\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain(
        [&] { return run(argc, argv); });
}
