/**
 * @file
 * Memory-system planner (Secs. 4.4 and 5.3): given a memory part
 * with cycle time mu_m, decide between pipelining the memory,
 * doubling the bus, and adding read-bypassing write buffers —
 * using both the analytic crossover machinery and end-to-end
 * timing simulation of the candidate systems, the latter sharded
 * across --threads workers as a candidate-axis scenario.
 *
 * Example:
 *   ./build/examples/memory_system_planner --mu 12 --line 32 \
 *       --threads 4
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/tradeoff.hh"
#include "cpu/timing_engine.hh"
#include "exp/runner.hh"

#include "example_cli.hh"

using namespace uatm;

static int
run(int argc, char **argv)
{
    exp::Scenario scenario("memory_system_candidates",
                           "candidate memory systems end to end");
    scenario.refs = 120000;
    scenario.cache.sizeBytes = 8 * 1024;
    scenario.cache.assoc = 2;
    scenario.cache.lineBytes = 32;
    scenario.memory.cycleTime = 12;
    scenario.memory.pipelineInterval = 2;
    scenario.cpu.feature = StallFeature::FS;
    scenario.writeBuffer.readBypass = true;

    examples::WorkloadCli workload_cli{"nasa7", 21};
    examples::RunnerCli cli;
    obs::Flags flags(
        "memory_system_planner",
        "Rank pipelined memory, bus doubling and write buffers "
        "for a given memory cycle time.");
    workload_cli.bind(flags);
    flags.add("mu", scenario.memory.cycleTime,
              "memory cycle time per bus transfer");
    flags.add("line", scenario.cache.lineBytes,
              "cache line size in bytes");
    flags.add("q", scenario.memory.pipelineInterval,
              "pipelined issue interval");
    flags.add("refs", scenario.refs, "references to simulate", 1);
    cli.bind(flags);
    if (!cli.parse(flags, argc, argv))
        return 0;

    const auto workload = workload_cli.spec();
    scenario.workload = workload;
    const Cycles mu = scenario.memory.cycleTime;
    const Cycles q = scenario.memory.pipelineInterval;

    TradeoffContext ctx;
    ctx.machine.busWidth = 4;
    ctx.machine.lineBytes = scenario.cache.lineBytes;
    ctx.machine.cycleTime = mu;
    ctx.alpha = 0.5;

    if (cli.narrate()) {
        // 1. Analytic ranking at this operating point.
        std::printf("analytic ranking at %s (base HR 95 %%):\n",
                    ctx.machine.describe().c_str());
        const auto scores = rankFeatures(ctx, 0.95, 6.5, q);
        for (std::size_t i = 0; i < scores.size(); ++i) {
            std::printf("  %zu. %-15s r = %.3f  (worth %.2f %% "
                        "hit ratio)\n",
                        i + 1, scores[i].name.c_str(),
                        scores[i].missFactor,
                        scores[i].hitRatioTraded * 100);
        }

        // 2. Where does the pipelined system take over from the
        //    bus?
        if (const auto crossover = crossoverCycleTime(
                ctx, TradeFeature::PipelinedMemory,
                TradeFeature::DoubleBus, q, 1.0,
                std::max<double>(2.0, q), 400.0)) {
            std::printf("\npipelined memory overtakes bus "
                        "doubling at mu_m = %.2f cycles — your "
                        "part is %s that point\n",
                        *crossover,
                        mu > *crossover ? "past" : "below");
        } else {
            std::printf("\npipelined memory never overtakes bus "
                        "doubling at this L/D (cf. Fig. 3)\n");
        }

        // 3. End-to-end confirmation with the timing engine.
        std::printf("\nend-to-end simulation (%s):\n",
                    workload.describe().c_str());
    }

    // One labelled axis: the candidate memory systems.  Each
    // candidate's label encodes (bus doubling, pipelining, write
    // buffering); the applier decodes it into the point's configs.
    enum Candidate { Base = 0, Wbuf, WideBus, Pipelined };
    scenario.sweepLabeled(
        "system",
        {{"baseline (FS, 32-bit)", Base},
         {"+ write buffers", Wbuf},
         {"+ 64-bit bus", WideBus},
         {"+ pipelined memory", Pipelined}},
        [](exp::Point &point, const exp::AxisValue &v) {
            switch (static_cast<Candidate>(
                static_cast<int>(v.value))) {
              case Base:
                break;
              case Wbuf:
                point.writeBuffer.depth = 8;
                break;
              case WideBus:
                point.memory.busWidthBytes = 8;
                break;
              case Pipelined:
                point.memory.pipelined = true;
                break;
            }
        });

    exp::Runner runner = cli.makeRunner();
    cli.emit(runner.run(
        scenario, {"cycles", "cpi", "mem_delay"},
        [](const exp::Point &point) {
            TimingEngine engine(point.cache, point.memory,
                                point.writeBuffer, point.cpu);
            auto workload = okOrThrow(point.workload.make());
            const auto stats = engine.run(*workload, point.refs);
            return std::vector<exp::Cell>{
                exp::Cell::integer(
                    static_cast<std::int64_t>(stats.cycles)),
                exp::Cell::num(stats.cpi(), 3),
                exp::Cell::num(stats.meanMemoryDelay(), 3)};
        }),
        runner);
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain(
        [&] { return run(argc, argv); });
}
