/**
 * @file
 * Quickstart: the unified tradeoff methodology in ~60 lines.
 *
 * Question: my processor has a 32-bit external bus, 32-byte cache
 * lines, an 8-cycle memory, and a 95 %-hit full-blocking cache.
 * What is each architectural feature worth, measured in cache hit
 * ratio — the paper's common currency?
 *
 * The comparison runs as a declarative scenario through the
 * sharded runner, so the same grid scales out with --threads and
 * re-emits as CSV/JSON with --format.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 *   ./build/examples/quickstart --format csv --out grid.csv
 */

#include <cstdio>

#include "cache/sweep.hh"
#include "core/equivalence.hh"
#include "exp/scenarios.hh"

#include "example_cli.hh"

static int
run(int argc, char **argv)
{
    using namespace uatm;

    Cycles mu = 8;
    exp::FeatureGrid grid;
    grid.baseHitRatio = 0.95;
    examples::WorkloadCli workload_cli{"none", 1};
    examples::RunnerCli cli;
    obs::Flags flags(
        "quickstart",
        "Price each architectural feature in hit ratio (Table 3).");
    flags.add("mu", mu, "memory cycle time per bus transfer");
    flags.add("hit-ratio", grid.baseHitRatio,
              "base hit ratio (ignored when --workload names a real "
              "generator)");
    workload_cli.bind(flags);
    cli.bind(flags);
    if (!cli.parse(flags, argc, argv))
        return 0;
    // Every point would refuse it; refuse it once, before the run.
    if (!(grid.baseHitRatio >= 0.0 && grid.baseHitRatio <= 1.0))
        fatal("quickstart: --hit-ratio must be in [0, 1] (got ",
              grid.baseHitRatio, ")");
    const auto workload = workload_cli.spec();

    // 1. Describe the base machine (Sec. 3 vocabulary).
    grid.ctx.machine.busWidth = 4;   // D: 32-bit external data bus
    grid.ctx.machine.lineBytes = 32; // L
    grid.ctx.alpha = 0.5;            // flush ratio (paper default)
    if (!workload.isNone()) {
        // Measure the base hit ratio from the named workload
        // instead of taking --hit-ratio on faith.
        CacheConfig cache;
        cache.sizeBytes = 8 * 1024;
        cache.assoc = 2;
        cache.lineBytes = 32;
        auto source = valueOrFatal(workload.make());
        grid.baseHitRatio =
            runCacheSim(cache, *source, 120000, 12000).hitRatio();
        if (cli.narrate())
            std::printf("measured HR for %s: %.2f %%\n",
                        workload.describe().c_str(),
                        grid.baseHitRatio * 100);
    }
    grid.phiPartial = 6.5; // measured BNL phi (cf. Figure 1)
    grid.q = 2.0;
    grid.cycleTimes.assign(1, mu);

    if (cli.narrate())
        std::printf("base machine: %s @ HR = %.0f %%\n\n",
                    grid.ctx.machine
                        .withCycleTime(grid.cycleTimes.front())
                        .describe()
                        .c_str(),
                    grid.baseHitRatio * 100);

    // 2. Ask what each feature trades (Eqs. 3 and 6 / Table 3),
    //    as a scenario through the runner.
    exp::Runner runner = cli.makeRunner();
    cli.emit(exp::runFeatureGrid(grid, runner), runner);

    if (!cli.narrate())
        return 0;

    // 3. Equal-performance designs (Sec. 5.2): what cache does a
    //    64-bit version of this machine need?
    TradeoffContext ctx = grid.ctx;
    ctx.machine =
        grid.ctx.machine.withCycleTime(grid.cycleTimes.front());
    DesignPoint narrow{ctx.machine, grid.baseHitRatio};
    const DesignPoint wide =
        equivalentDoubleBusDesign(narrow, ctx.alpha);
    std::printf("\n%s  ==  %s\n", narrow.describe().c_str(),
                wide.describe().c_str());

    // 4. Check the equivalence end to end through Eq. 2.
    ApplicationShape app; // 1M instructions, 300k data refs
    std::printf("execution time: %.0f vs %.0f cycles\n",
                designExecutionTime(narrow, app),
                designExecutionTime(wide, app));
    return 0;
}

int
main(int argc, char **argv)
{
    return uatm::guardedMain(
        [&] { return run(argc, argv); });
}
