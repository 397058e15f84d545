/**
 * @file
 * offline_sweep: one closed-loop caller making back-to-back
 * exp::runGeometrySweep calls (Engine::Auto, 2 runner threads)
 * over the family x assoc catalog.  Trace generation and the
 * single-pass stack simulator do nearly all the work; serve, cpu
 * and core do none.
 */

#include <cstdio>
#include <map>
#include <stdexcept>

#include "cache/stack_sim.hh"
#include "cache/sweep.hh"
#include "exp/runner.hh"
#include "inputs.hh"
#include "record.hh"
#include "stats.hh"
#include "workloads.hh"

namespace perfbench {

using namespace uatm;

namespace {

constexpr std::uint64_t kRefsPerPoint = kSweepRefs;
constexpr std::uint64_t kRefsPulled = kSweepRefs + kSweepWarmup;

/** Renderings each catalog entry produced, with their counts. */
using Renderings = std::map<std::string, std::uint64_t>;

/** Compare every rendering against an Engine::PerPoint reference
 *  run; returns the operations whose table differs. */
std::uint64_t
checkAgainstReference(const std::vector<exp::GeometrySweep> &catalog,
                      const std::vector<Renderings> &seen,
                      exp::Runner &runner)
{
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        if (seen[i].empty())
            continue;
        exp::GeometrySweep reference = catalog[i];
        reference.engine = exp::GeometrySweep::Engine::PerPoint;
        const std::string expected =
            exp::runGeometrySweep(reference, runner).renderNdjson();
        for (const auto &[rendering, count] : seen[i]) {
            if (rendering != expected) {
                std::printf("MISMATCH: sweep %zu (%s, assoc %u) "
                            "differs from the per-point reference "
                            "in %llu operation(s)\n",
                            i, catalog[i].workload.describe().c_str(),
                            catalog[i].base.assoc,
                            static_cast<unsigned long long>(count));
                failed += count;
            }
        }
    }
    return failed;
}

/** The sweep's geometry grid, as runGeometrySweep builds it. */
GeometryGrid
gridOf(const exp::GeometrySweep &sweep)
{
    GeometryGrid grid;
    grid.lineBytes = sweep.base.lineBytes;
    grid.write = sweep.base.write;
    grid.writeMiss = sweep.base.writeMiss;
    for (std::uint64_t size : sweep.values) {
        CacheConfig config = sweep.base;
        config.sizeBytes = size;
        if (config.validate().ok())
            grid.addConfig(config);
    }
    return grid;
}

/** The operation split into its layer calls, one span each. */
void
replayTraced(const exp::GeometrySweep &sweep, exp::Runner &runner,
             SpanRecorder &spans, std::uint64_t op)
{
    ScopedSpan root(spans, "op", op);
    Trace buffer;
    {
        ScopedSpan span(spans, "trace.gen", op, root.id());
        buffer = fillTrace(*okOrThrow(sweep.workload.make()),
                           kRefsPulled);
    }
    {
        ScopedSpan span(spans, "cache.stack_sim", op, root.id());
        const GeometryHitSurface surface = runStackSim(
            gridOf(sweep), buffer, sweep.refs, sweep.warmupRefs);
        (void)surface;
    }
    {
        ScopedSpan span(spans, "exp.dispatch", op, root.id());
        runner.run(exp::makeGeometryScenario(sweep),
                   {"hit_ratio", "miss_ratio", "flush_ratio"},
                   [](const exp::Point &) {
                       return std::vector<exp::Cell>(
                           3, exp::Cell::num(0.0));
                   });
    }
}

} // namespace

WorkloadResult
runOfflineSweep(const RunConfig &config)
{
    WorkloadResult result;
    const std::vector<exp::GeometrySweep> catalog =
        okOrThrow(resolveSweepCatalog(config.seed));
    SetupSamples setup;
    const auto setupRep = [&] {
        const std::int64_t start = nowNs();
        const auto again = resolveSweepCatalog(config.seed);
        const double seconds = double(nowNs() - start) / 1e9;
        if (!again.ok() || again.value().size() != catalog.size())
            throw std::runtime_error("set-up repetition failed");
        return seconds;
    };
    const std::vector<std::size_t> order =
        sweepOrder(config.seed, catalog.size());

    exp::Runner runner(exp::RunnerOptions{kRunnerThreads});
    std::vector<Renderings> seen(catalog.size());
    SpanRecorder spans;
    double busy_ns = 0;
    std::vector<std::vector<double>> op_ns(catalog.size());
    std::uint64_t points_failed = 0;
    resetSweepDispatchStats();

    NoiseProbe noise;
    const std::int64_t deadline =
        nowNs() + std::int64_t(config.seconds * 1e9);
    for (std::uint64_t op = 0; nowNs() < deadline; ++op) {
        if (!config.traced)
            setup.poll(setupRep);
        const std::size_t entry = order[op % order.size()];
        const exp::GeometrySweep &sweep = catalog[entry];
        const std::int64_t start = nowNs();
        const exp::ResultTable table =
            exp::runGeometrySweep(sweep, runner);
        const double ns = double(nowNs() - start);
        op_ns[entry].push_back(ns);
        busy_ns += ns;
        ++result.attempted;
        if (runner.lastStats().pointsFailed)
            ++points_failed;
        else
            ++seen[entry][table.renderNdjson()];
        if (config.traced)
            replayTraced(sweep, runner, spans, op);
    }
    const double rss = peakRssMiB(0);
    for (auto &[key, value] : noise.stop())
        result.note(key, value);
    const SweepDispatchCounters dispatch = sweepDispatchCounters();

    // References run after the timed loop.
    result.failed =
        checkAgainstReference(catalog, seen, runner) + points_failed;
    if (points_failed)
        std::printf("FAILED: %llu sweep(s) degraded points to error "
                    "cells\n",
                    static_cast<unsigned long long>(points_failed));
    result.correct = result.failed == 0;

    const double points = double(sweepSizes().size());
    std::printf("offline_sweep: %llu sweeps of %g points x %llu refs "
                "in %.3f s busy\n",
                static_cast<unsigned long long>(result.attempted),
                points,
                static_cast<unsigned long long>(kRefsPerPoint),
                busy_ns / 1e9);
    if (!config.traced) {
        setup.report(result);
        result.add("peak_rss_mb", rss, "MiB");
        // Each sweep's median latency, averaged over the catalog.
        const double latency_ns = meanOfMedians(op_ns);
        result.add("latency_p50_ms", latency_ns / 1e6, "ms");
        result.note("throughput_refs_per_s",
                    std::to_string(points * double(kRefsPerPoint) /
                                   latency_ns * 1e9));
        return result;
    }

    writeSpans(spans, config.spansPath);
    Ledger ledger = ledgerOf(spans);
    ledger.opNs = busy_ns;
    printLedger("offline_sweep", ledger, busy_ns);
    const double ops = double(result.attempted);
    const double pulled = ops * double(kRefsPulled);
    const double dispatched =
        double(dispatch.fastPath + dispatch.declined +
               dispatch.perPoint);
    reportLayers(
        result,
        {{"trace.gen_ns_per_ref",
          ledger.duration("trace.gen") / pulled},
         {"trace.share", ledger.share("trace.gen", busy_ns)},
         {"cache.stack_sim_ns_per_ref",
          ledger.duration("cache.stack_sim") / pulled},
         {"cache.fast_path_share",
          dispatched > 0 ? double(dispatch.fastPath) / dispatched
                         : 0.0},
         {"cache.share", ledger.share("cache.stack_sim", busy_ns)},
         {"exp.dispatch_us_per_op",
          ledger.self("exp.dispatch") / ops / 1e3},
         {"exp.share", ledger.share("exp.dispatch", busy_ns)}},
        ledger.residualShare(), ledger.tracingOverheadShare());
    return result;
}

} // namespace perfbench
