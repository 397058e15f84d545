/**
 * @file
 * Implementation of the Figures 3-5 driver.
 */

#include "unified_figure.hh"

#include <cstdio>

#include "common.hh"
#include "core/tradeoff.hh"
#include "cpu/phi_measurement.hh"
#include "exp/scenarios.hh"

namespace uatm::bench {

void
runUnifiedFigure(const UnifiedFigureSpec &spec)
{
    banner(spec.figureId,
           "unified tradeoff: L = " +
               TextTable::num(spec.lineBytes, 0) +
               "B, D = " + TextTable::num(spec.busWidth, 0) +
               "B, q = " + TextTable::num(spec.q, 0) +
               ", base HR = " +
               TextTable::num(spec.baseHitRatio * 100, 0) +
               "%, alpha = " + TextTable::num(spec.alpha, 2) +
               ", BNL variant = " +
               stallFeatureName(spec.bnlFeature));

    const std::vector<double> mus = {2, 3, 4, 5, 6, 8, 10,
                                     12, 14, 16, 18, 20};
    const std::string bnl_label =
        stallFeatureName(spec.bnlFeature);

    TextTable table({"mu_m", "pipelined %", "double bus %",
                     "write buffers %", bnl_label + " %",
                     "measured phi"});
    AsciiChart chart(64, 18);
    chart.setTitle(spec.figureId +
                   ": hit ratio traded (%) vs memory cycle time");
    chart.setXLabel("non-pipelined memory cycle per 4 bytes");
    chart.setYLabel("hit ratio traded (%)");
    ChartSeries pipe{"pipelined", '#', {}, {}};
    ChartSeries bus{"double bus", '-', {}, {}};
    ChartSeries wbuf{"write buffers", '.', {}, {}};
    ChartSeries bnl{bnl_label, 'o', {}, {}};

    for (double mu : mus) {
        TradeoffContext ctx;
        ctx.machine.busWidth = spec.busWidth;
        ctx.machine.lineBytes = spec.lineBytes;
        ctx.machine.cycleTime = mu;
        ctx.alpha = spec.alpha;

        // The BNL curve uses the simulator-measured stalling
        // factor at this cycle time, as the paper did (Sec. 5.3).
        PhiExperiment exp;
        exp.feature = spec.bnlFeature;
        exp.cycleTime = static_cast<Cycles>(mu);
        exp.refs = 40000;
        exp.cache.lineBytes =
            static_cast<std::uint32_t>(spec.lineBytes);
        const double phi =
            std::min(exp::measurePhiAllProfiles(exp).back().phi,
                     ctx.machine.lineOverBus());

        const double traded_pipe =
            hitRatioTraded(missFactorPipelined(ctx, spec.q),
                           spec.baseHitRatio) *
            100.0;
        const double traded_bus =
            hitRatioTraded(missFactorDoubleBus(ctx),
                           spec.baseHitRatio) *
            100.0;
        const double traded_wbuf =
            hitRatioTraded(missFactorWriteBuffers(ctx),
                           spec.baseHitRatio) *
            100.0;
        const double traded_bnl =
            hitRatioTraded(missFactorPartialStall(ctx, phi),
                           spec.baseHitRatio) *
            100.0;

        table.addRow({TextTable::num(mu, 0),
                      TextTable::num(traded_pipe, 3),
                      TextTable::num(traded_bus, 3),
                      TextTable::num(traded_wbuf, 3),
                      TextTable::num(traded_bnl, 3),
                      TextTable::num(phi, 3)});
        pipe.x.push_back(mu);
        pipe.y.push_back(traded_pipe);
        bus.x.push_back(mu);
        bus.y.push_back(traded_bus);
        wbuf.x.push_back(mu);
        wbuf.y.push_back(traded_wbuf);
        bnl.x.push_back(mu);
        bnl.y.push_back(traded_bnl);
    }

    section("traded hit ratio per feature");
    emitTable(table);
    exportCsv(spec.figureId == "Figure 3"   ? "fig3_unified_L8"
              : spec.figureId == "Figure 4" ? "fig4_unified_L32"
                                            : "fig5_unified_bnl3",
              table);
    chart.addSeries(std::move(pipe));
    chart.addSeries(std::move(bus));
    chart.addSeries(std::move(wbuf));
    chart.addSeries(std::move(bnl));
    emitChart(chart);

    section("paper-vs-measured observations");
    {
        TradeoffContext ctx;
        ctx.machine.busWidth = spec.busWidth;
        ctx.machine.lineBytes = spec.lineBytes;
        ctx.machine.cycleTime = 8;
        ctx.alpha = spec.alpha;

        // Ranking (excluding pipelined): bus > wbuf > BNL.
        const double r_bus = missFactorDoubleBus(ctx);
        const double r_wbuf = missFactorWriteBuffers(ctx);
        compareLine("bus doubling beats write buffers",
                    "always", r_bus > r_wbuf ? "yes" : "no",
                    r_bus > r_wbuf);

        // Pipelined-vs-bus crossover.
        const auto crossover = crossoverCycleTime(
            ctx, TradeFeature::PipelinedMemory,
            TradeFeature::DoubleBus, spec.q, 1.0, 2.0, 200.0);
        if (spec.lineBytes / spec.busWidth > 2.0) {
            compareLine(
                "pipelined beats bus doubling from mu_m ~",
                "5-6 cycles",
                crossover ? TextTable::num(*crossover, 2)
                          : std::string("none"),
                crossover && *crossover > 3.0 &&
                    *crossover < 7.0);
        } else {
            compareLine(
                "pipelined never beats bus doubling (L/D = 2)",
                "no crossover",
                crossover ? TextTable::num(*crossover, 2)
                          : std::string("none"),
                !crossover.has_value());
        }

        // The pipelined curve meets the x-axis at mu_m = q.
        TradeoffContext at_q = ctx;
        at_q.machine = ctx.machine.withCycleTime(spec.q);
        const double traded_at_q = hitRatioTraded(
            missFactorPipelined(at_q, spec.q), spec.baseHitRatio);
        compareLine("pipelined curve meets x-axis at mu_m = q",
                    "0 at mu_m = 2",
                    TextTable::num(traded_at_q * 100, 4) + " %",
                    std::abs(traded_at_q) < 1e-9);
    }
}

} // namespace uatm::bench
