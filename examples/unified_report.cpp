/**
 * @file
 * The flagship example: a one-page design report for a machine you
 * describe on the command line, produced with every arm of the
 * methodology —
 *
 *   1. what each architectural feature is worth in hit ratio
 *      (Eqs. 3/6, Table 3), including victim-cache pricing;
 *   2. where the pipelined-memory crossover falls (Sec. 5.3);
 *   3. the recommended line size for a measured workload and the
 *      bus speeds it remains optimal for (Sec. 5.4);
 *   4. the cost-effectiveness view (Alpert & Flynn) and the bus
 *      traffic (Goodman) of that choice;
 *   5. an end-to-end simulation of the suggested configuration
 *      against the baseline.
 *
 * The measured parts (the phi average and the line-size sweep)
 * run through the scenario layer, so --threads shards them.
 *
 * Example:
 *   ./build/examples/unified_report --mu 10 --line 32 \
 *       --workload hydro2d --hit-ratio 0.95 --threads 4
 */

#include <cinttypes>
#include <cstdio>
#include <string>

#include "uatm.hh"

#include "example_cli.hh"

using namespace uatm;

static int
run(int argc, char **argv)
{
    Cycles mu = 10;
    std::uint32_t line = 32;
    std::uint32_t bus = 4;
    double hr = 0.95;
    TradeoffContext ctx;
    ctx.alpha = 0.5;
    Cycles q = 2;
    std::uint64_t refs = 80000;
    examples::WorkloadCli workload_cli{"hydro2d", 1};
    examples::RunnerCli cli;
    obs::Flags flags("unified_report",
                     "One-page architectural tradeoff report for a "
                     "described machine.");
    flags.add("mu", mu, "memory cycle time per bus transfer");
    flags.add("line", line, "cache line size in bytes");
    flags.add("bus", bus, "bus width in bytes");
    flags.add("hit-ratio", hr, "base data-cache hit ratio");
    flags.add("alpha", ctx.alpha, "flush ratio");
    flags.add("q", q, "pipelined issue interval");
    workload_cli.bind(flags);
    flags.add("refs", refs, "references to simulate", 1);
    cli.bind(flags);
    if (!cli.parse(flags, argc, argv))
        return 0;

    ctx.machine.busWidth = bus;
    ctx.machine.lineBytes = line;
    ctx.machine.cycleTime = mu;
    const auto workload = workload_cli.spec();

    if (cli.narrate())
        std::printf(
            "==============================================\n"
            "uatm design report — %s @ HR %.1f %%\n"
            "==============================================\n\n",
            ctx.machine.describe().c_str(), hr * 100);

    // ---- 1. feature pricing --------------------------------------
    if (cli.narrate())
        std::printf("[1] what each feature is worth (Eq. 6)\n");
    {
        // Measure the BNL3 stalling factor for this machine, one
        // profile per runner shard.
        PhiExperiment phi_exp;
        phi_exp.feature = StallFeature::BNL3;
        phi_exp.cycleTime = mu;
        phi_exp.cache.lineBytes = line;
        phi_exp.refs = refs / 2;
        const double phi = std::min(
            exp::measurePhiAllProfiles(phi_exp, cli.threads).back().phi,
            ctx.machine.lineOverBus());

        exp::ResultTable table(
            "feature_pricing",
            {"feature", "r", "dhr_pct", "equiv_hr_pct"});
        auto row = [&](const char *name, double r) {
            table.addRow(
                {exp::Cell::text(name), exp::Cell::num(r, 3),
                 exp::Cell::num(hitRatioTraded(r, hr) * 100, 2),
                 exp::Cell::num(
                     equivalentHitRatio(r, hr) * 100, 2)});
        };
        row("double the bus", missFactorDoubleBus(ctx));
        row("write buffers", missFactorWriteBuffers(ctx));
        row("BNL3 cache (measured phi)",
            missFactorPartialStall(ctx, phi));
        row("pipelined memory", missFactorPipelined(ctx, q));
        row("victim cache (f=0.5, 2cy)",
            missFactorVictim(ctx, 0.5, 2.0));
        cli.emit(table);
    }
    if (!cli.narrate())
        return 0;

    // ---- 2. crossover --------------------------------------------
    std::printf("\n[2] pipelined-memory crossover (Sec. 5.3)\n");
    if (ctx.machine.lineOverBus() > 2.0) {
        const auto crossover = crossoverCycleTime(
            ctx, TradeFeature::PipelinedMemory,
            TradeFeature::DoubleBus, q, 1.0, std::max<double>(2.0, q),
            400.0);
        if (crossover) {
            std::printf("    pipelining beats a wider bus from "
                        "mu_m = %.2f; your mu_m = %.0f is %s it\n",
                        *crossover, ctx.machine.cycleTime,
                        ctx.machine.cycleTime > *crossover
                            ? "past"
                            : "below");
        }
    } else {
        std::printf("    L/D = 2: pipelining never beats "
                    "doubling the bus (Fig. 3)\n");
    }

    // ---- 3. line size ---------------------------------------------
    std::printf("\n[3] line size for '%s' (Sec. 5.4)\n",
                workload.shortLabel().c_str());
    LineDelayModel delay;
    delay.c = ctx.machine.cycleTime + 1.0;
    delay.beta = ctx.machine.cycleTime;
    delay.busWidth = ctx.machine.busWidth;
    {
        exp::LineTradeoff spec;
        spec.base.sizeBytes = 8 * 1024;
        spec.base.assoc = 2;
        spec.workload = workload;
        spec.lineSizes = {8, 16, 32, 64, 128};
        spec.baseLine = 8;
        spec.delay = delay;
        spec.refs = refs;
        spec.warmupRefs = refs / 10;
        exp::Runner runner = cli.makeRunner();
        const auto result = exp::runLineTradeoff(spec, runner);
        std::printf("    measured MR(L) recommends %u-byte "
                    "lines (Smith agrees: %u)\n",
                    result.recommended, result.smith);

        // 4. cost + traffic view for the same table.
        CacheAreaModel area;
        CacheConfig geometry;
        geometry.sizeBytes = 8 * 1024;
        geometry.assoc = 2;
        const auto cost = costEffectiveLine(result.missRatios,
                                            delay, area, geometry);
        std::printf("\n[4] cost view: delay-area optimum is %u "
                    "bytes (Alpert & Flynn); traffic rises with "
                    "line size (Goodman) — see "
                    "bench_ablation_traffic\n",
                    cost);
    }

    // ---- 5. end-to-end --------------------------------------------
    std::printf("\n[5] end-to-end check (%" PRIu64 " refs)\n", refs);
    {
        auto run = [&](std::uint32_t bus_bytes, bool pipelined,
                       std::uint32_t wbuf) {
            CacheConfig cache;
            cache.sizeBytes = 8 * 1024;
            cache.assoc = 2;
            cache.lineBytes = line;
            MemoryConfig mem;
            mem.busWidthBytes = bus_bytes;
            mem.cycleTime = mu;
            mem.pipelined = pipelined;
            mem.pipelineInterval = q;
            CpuConfig cpu;
            cpu.feature = StallFeature::FS;
            TimingEngine engine(cache, mem,
                                WriteBufferConfig{wbuf, true},
                                cpu);
            // Fresh stream, distinct seed from the sweeps above.
            exp::WorkloadSpec check = workload;
            check.seed = workload.seed + 1;
            auto source = okOrThrow(check.make());
            return engine.run(*source, refs);
        };
        const auto base = run(bus, false, 0);
        const auto best = ctx.machine.cycleTime >= 5.0 &&
                                  ctx.machine.lineOverBus() > 2.0
                              ? run(bus, true, 8)
                              : run(bus * 2, false, 8);
        std::printf("    baseline: %llu cycles (CPI %.3f)\n",
                    static_cast<unsigned long long>(base.cycles),
                    base.cpi());
        std::printf("    suggested config: %llu cycles "
                    "(CPI %.3f, %.1f %% faster)\n",
                    static_cast<unsigned long long>(best.cycles),
                    best.cpi(),
                    100.0 * (1.0 - static_cast<double>(
                                       best.cycles) /
                                       static_cast<double>(
                                           base.cycles)));
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain(
        [&] { return run(argc, argv); });
}
