/**
 * @file
 * engine_replay: one closed-loop caller running the
 * design_space_explorer grid through exp::Runner (2 threads) with
 * the TimingEngine kernel, replaying captured trace files, then
 * pricing the measured hit ratios with the closed-form model.
 * Neither the generators nor stack_sim run in the timed loop.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/execution_time.hh"
#include "core/tradeoff.hh"
#include "cpu/timing_engine.hh"
#include "exp/runner.hh"
#include "inputs.hh"
#include "record.hh"
#include "stats.hh"
#include "workloads.hh"

namespace perfbench {

using namespace uatm;

namespace {

constexpr std::size_t kGridPoints = 24;

const TradeFeature kFeatures[] = {
    TradeFeature::DoubleBus, TradeFeature::PartialStall,
    TradeFeature::WriteBuffers, TradeFeature::PipelinedMemory};

/** Closed-form calls per grid point: r and dHR per feature, and
 *  the execution time. */
constexpr std::size_t kEvalsPerPoint = 2 * std::size(kFeatures) + 1;

struct PointStats
{
    CacheStats cache;
    TimingStats timing;
};

/** What one operation produced: the table and every closed-form
 *  output, compared bit for bit against the reference. */
struct GridOutcome
{
    std::string table;
    std::vector<double> priced;

    bool operator==(const GridOutcome &) const = default;
};

std::vector<exp::Cell>
pointCells(const PointStats &stats)
{
    return {exp::Cell::num(stats.cache.hitRatio() * 100, 2),
            exp::Cell::integer(std::int64_t(stats.cache.misses)),
            exp::Cell::integer(std::int64_t(stats.timing.cycles)),
            exp::Cell::num(stats.timing.cpi(), 3),
            exp::Cell::num(stats.timing.meanMemoryDelay(), 3)};
}

const std::vector<std::string> kColumns = {
    "hr_pct", "misses", "cycles", "cpi", "mem_delay"};

/** Price every point's measured hit ratio (Eq. 2, 3, 6). */
std::vector<double>
priceGrid(const std::vector<exp::Point> &points,
          const std::vector<PointStats> &stats)
{
    std::vector<double> priced;
    priced.reserve(points.size() * kEvalsPerPoint);
    for (const exp::Point &point : points) {
        const PointStats &s = stats[point.index];
        TradeoffContext ctx;
        ctx.machine.busWidth = point.memory.busWidthBytes;
        ctx.machine.lineBytes = point.cache.lineBytes;
        ctx.machine.cycleTime = double(point.memory.cycleTime);
        ctx.alpha = s.cache.flushRatio(point.cache.lineBytes);
        const double hit_ratio = s.cache.hitRatio();
        for (TradeFeature feature : kFeatures) {
            const double r = featureMissFactor(ctx, feature, 2.0, 4.0);
            priced.push_back(r);
            priced.push_back(hitRatioTraded(r, hit_ratio));
        }
        Workload workload;
        workload.dataRefs = double(s.cache.loads + s.cache.stores);
        workload.instructions =
            std::max(double(s.cache.instructions), workload.dataRefs);
        workload.bytesRead =
            double(s.cache.bytesRead(point.cache.lineBytes));
        workload.flushRatio = ctx.alpha;
        priced.push_back(executionTime(
            workload, ctx.machine, ctx.machine.lineOverBus()));
    }
    return priced;
}

/** One operation, untraced: the grid, then the pricing.  A grid
 *  with a failed point yields an empty table, which no reference
 *  matches. */
GridOutcome
runGrid(const exp::Scenario &grid,
        const std::vector<exp::Point> &points, exp::Runner &runner)
{
    std::vector<PointStats> stats(points.size());
    const exp::ResultTable table = runner.run(
        grid, kColumns,
        [&stats](const exp::Point &point)
            -> Expected<std::vector<exp::Cell>> {
            TimingEngine engine(point.cache, point.memory,
                                point.writeBuffer, point.cpu);
            auto source = point.workload.make();
            if (!source.ok())
                return source.status();
            PointStats &s = stats[point.index];
            s.timing = engine.run(*source.value(), point.refs);
            s.cache = engine.cacheStats();
            return pointCells(s);
        });
    if (runner.lastStats().pointsFailed)
        return {};
    return {table.renderNdjson(), priceGrid(points, stats)};
}

/** The operation split into its layer calls, one span each. */
void
replayTraced(const exp::Scenario &grid,
             const std::vector<exp::Point> &points,
             exp::Runner &runner, SpanRecorder &spans,
             std::uint64_t op)
{
    ScopedSpan root(spans, "op", op);
    std::vector<PointStats> stats(points.size());
    {
        ScopedSpan dispatch(spans, "exp.dispatch", op, root.id());
        const std::int64_t parent = dispatch.id();
        runner.run(
            grid, kColumns,
            [&stats, &spans, op, parent](const exp::Point &point) {
                Trace buffer;
                {
                    ScopedSpan span(spans, "trace.replay", op, parent);
                    buffer = fillTrace(
                        *okOrThrow(point.workload.make()), point.refs);
                }
                ScopedSpan span(spans, "cpu.engine", op, parent);
                TimingEngine engine(point.cache, point.memory,
                                    point.writeBuffer, point.cpu);
                PointStats &s = stats[point.index];
                s.timing = engine.run(buffer, point.refs);
                s.cache = engine.cacheStats();
                return pointCells(s);
            });
    }
    ScopedSpan span(spans, "core", op, root.id());
    (void)priceGrid(points, stats);
}

} // namespace

WorkloadResult
runEngineReplay(const RunConfig &config)
{
    WorkloadResult result;
    const std::string dir = config.workDir + "/traces";
    const std::string setup_dir = config.workDir + "/setup";
    std::filesystem::create_directories(dir);
    std::filesystem::create_directories(setup_dir);
    const std::vector<std::string> paths =
        okOrThrow(captureReplayTraces(config.seed, dir));
    // Repetitions capture into their own directory: the replayed
    // files stay untouched.
    SetupSamples setup;
    const auto setupRep = [&] {
        const std::int64_t start = nowNs();
        const auto again = captureReplayTraces(config.seed, setup_dir);
        const double seconds = double(nowNs() - start) / 1e9;
        if (!again.ok())
            throw std::runtime_error("set-up repetition failed");
        return seconds;
    };
    std::vector<exp::Scenario> grids;
    std::vector<std::vector<exp::Point>> grid_points;
    for (const std::string &path : paths) {
        grids.push_back(replayGrid(path));
        grid_points.push_back(grids.back().expand());
        if (grid_points.back().size() != kGridPoints)
            throw std::runtime_error("replay grid is not 24 points");
    }

    exp::Runner runner(exp::RunnerOptions{kRunnerThreads});
    // Each distinct outcome of a grid once, with its count, so the
    // memory the benchmark holds does not grow with the operations.
    std::vector<std::vector<std::pair<GridOutcome, std::uint64_t>>>
        outcomes(grids.size());
    SpanRecorder spans;
    double busy_ns = 0;
    std::vector<std::vector<double>> op_ns(grids.size());

    NoiseProbe noise;
    const std::int64_t deadline =
        nowNs() + std::int64_t(config.seconds * 1e9);
    for (std::uint64_t op = 0; nowNs() < deadline; ++op) {
        if (!config.traced)
            setup.poll(setupRep);
        const std::size_t g = op % grids.size();
        const std::int64_t start = nowNs();
        GridOutcome outcome = runGrid(grids[g], grid_points[g], runner);
        const double ns = double(nowNs() - start);
        op_ns[g].push_back(ns);
        busy_ns += ns;
        ++result.attempted;
        auto &seen = outcomes[g];
        const auto it = std::find_if(
            seen.begin(), seen.end(),
            [&](const auto &entry) { return entry.first == outcome; });
        if (it != seen.end())
            ++it->second;
        else
            seen.emplace_back(std::move(outcome), 1);
        if (config.traced)
            replayTraced(grids[g], grid_points[g], runner, spans, op);
    }
    const double rss = peakRssMiB(0);
    for (auto &[key, value] : noise.stop())
        result.note(key, value);

    // References: each grid on one thread, after the timed loop.
    exp::Runner serial(exp::RunnerOptions{1});
    for (std::size_t g = 0; g < grids.size(); ++g) {
        const GridOutcome expected =
            runGrid(grids[g], grid_points[g], serial);
        for (const auto &[outcome, count] : outcomes[g])
            result.failed +=
                outcome == expected && !expected.table.empty() ? 0
                                                               : count;
    }
    if (result.failed)
        std::printf("MISMATCH: %llu grid(s) differ from the 1-thread "
                    "reference or failed a point\n",
                    static_cast<unsigned long long>(result.failed));
    result.correct = result.failed == 0;
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(setup_dir);

    const double refs_timed = double(result.attempted) *
                              double(kGridPoints) * double(kReplayRefs);
    std::printf("engine_replay: %llu grids of %zu points x %llu refs "
                "in %.3f s busy\n",
                static_cast<unsigned long long>(result.attempted),
                kGridPoints,
                static_cast<unsigned long long>(kReplayRefs),
                busy_ns / 1e9);
    if (!config.traced) {
        setup.report(result);
        result.add("peak_rss_mb", rss, "MiB");
        // Each trace's median grid latency, averaged over the traces.
        const double latency_ns = meanOfMedians(op_ns);
        result.add("latency_p50_ms", latency_ns / 1e6, "ms");
        result.note("throughput_refs_per_s",
                    std::to_string(double(kGridPoints * kReplayRefs) /
                                   latency_ns * 1e9));
        return result;
    }

    writeSpans(spans, config.spansPath);
    Ledger ledger = ledgerOf(spans);
    ledger.opNs = busy_ns;
    printLedger("engine_replay", ledger, busy_ns);
    const double ops = double(result.attempted);
    reportLayers(
        result,
        {{"trace.replay_ns_per_ref",
          ledger.duration("trace.replay") / refs_timed},
         {"trace.share", ledger.share("trace.replay", busy_ns)},
         {"cpu.engine_ns_per_ref",
          ledger.duration("cpu.engine") / refs_timed},
         {"cpu.share", ledger.share("cpu.engine", busy_ns)},
         {"core.ns_per_eval",
          ledger.duration("core") /
              (ops * double(kGridPoints * kEvalsPerPoint))},
         {"core.share", ledger.share("core", busy_ns)},
         {"exp.dispatch_us_per_op",
          ledger.self("exp.dispatch") / ops / 1e3},
         {"exp.share", ledger.share("exp.dispatch", busy_ns)}},
        ledger.residualShare(), ledger.tracingOverheadShare());
    return result;
}

} // namespace perfbench
