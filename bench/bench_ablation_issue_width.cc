/**
 * @file
 * Ablation — multiple instruction issue (the paper's Sec. 6 future
 * work): how the traded hit ratio and the feature crossovers move
 * as the machine issues more than one instruction per cycle.
 *
 * Two analytic findings are demonstrated:
 *  1. the miss factor r_k decreases monotonically toward the pure
 *     per-miss cost ratio A/B (a wider-issue machine trades
 *     slightly less hit ratio per feature);
 *  2. the pipelined-vs-bus crossover is invariant to issue width.
 */

#include <cmath>
#include <cstdio>

#include "common.hh"
#include "core/execution_time.hh"
#include "core/tradeoff.hh"

using namespace uatm;

int
main()
{
    bench::banner("Ablation: issue width",
                  "Sec. 6 future work — multiple instruction "
                  "issue (L = 32, D = 4, mu_m = 8, alpha = 0.5)");

    TradeoffContext ctx;
    ctx.machine.busWidth = 4;
    ctx.machine.lineBytes = 32;
    ctx.machine.cycleTime = 8;
    ctx.alpha = 0.5;

    bench::section("miss factor r and traded hit ratio vs k "
                   "(base HR 95 %)");
    TextTable table({"k", "bus r", "bus dHR %", "wbuf r",
                     "pipe r", "speedup at HR95"});
    const Workload w =
        Workload::fromHitRatio(1e6, 3e5, 0.95, 32, 0.5);
    const double x1 = executionTimeFS(w, ctx.machine);
    for (double k : {1.0, 2.0, 3.0, 4.0, 6.0, 8.0}) {
        TradeoffContext at = ctx;
        at.machine.issueWidth = k;
        const double r_bus = missFactorDoubleBus(at);
        table.addRow(
            {TextTable::num(k, 0), TextTable::num(r_bus, 4),
             TextTable::num(hitRatioTraded(r_bus, 0.95) * 100, 3),
             TextTable::num(missFactorWriteBuffers(at), 4),
             TextTable::num(missFactorPipelined(at, 2.0), 4),
             TextTable::num(x1 / executionTimeFS(w, at.machine),
                            3)});
    }
    bench::emitTable(table);
    bench::exportCsv("ablation_issue_width", table);

    bench::section("findings");
    {
        TradeoffContext k8 = ctx;
        k8.machine.issueWidth = 8;
        const double r1 = missFactorDoubleBus(ctx);
        const double r8 = missFactorDoubleBus(k8);
        const Machine wide = ctx.machine.withDoubledBus();
        const double cost_ratio =
            perMissCost(ctx.machine, ctx.machine.lineOverBus(),
                        ctx.alpha) /
            perMissCost(wide, wide.lineOverBus(), ctx.alpha);
        bench::compareLine("r_k decreases toward A/B",
                           "limit " +
                               TextTable::num(cost_ratio, 4),
                           TextTable::num(r1, 4) + " -> " +
                               TextTable::num(r8, 4),
                           r8 < r1 && r8 > cost_ratio);

        auto crossover = [](const TradeoffContext &at) {
            return crossoverCycleTime(
                at, TradeFeature::PipelinedMemory,
                TradeFeature::DoubleBus, 2.0, /*phi=*/0.0, 2.0,
                100.0);
        };
        const auto c1 = crossover(ctx);
        const auto c8 = crossover(k8);
        bench::compareLine(
            "pipelined/bus crossover invariant in k",
            "identical",
            (c1 ? TextTable::num(*c1, 3) : std::string("-")) +
                " vs " +
                (c8 ? TextTable::num(*c8, 3) : std::string("-")),
            c1 && c8 && std::abs(*c1 - *c8) < 1e-6);
    }
    return 0;
}
