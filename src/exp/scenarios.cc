/**
 * @file
 * Implementation of the standing scenario builders.
 */

#include "exp/scenarios.hh"

#include <optional>
#include <utility>

#include "cache/stack_sim.hh"
#include "trace/generators.hh"
#include "util/logging.hh"

namespace uatm::exp {

namespace {

constexpr int kRatioPrecision = 6;

const char *
geometryAxisName(GeometrySweep::Axis axis)
{
    return axis == GeometrySweep::Axis::Size ? "size" : "line";
}

/** The hit/miss/flush cells of one priced geometry. */
std::vector<Cell>
ratioCells(const CacheRunResult &run)
{
    return {Cell::num(run.hitRatio(), kRatioPrecision),
            Cell::num(run.missRatio(), kRatioPrecision),
            Cell::num(run.flushRatio(), kRatioPrecision)};
}

/**
 * One stack-sim pass that prices every valid size of @p spec, or
 * nullopt with @p reason naming why the sweep declines it.
 */
std::optional<GeometryHitSurface>
stackSimSurface(const GeometrySweep &spec, std::string &reason)
{
    if (const char *ineligible = stackSimIneligibleReason(spec.base)) {
        reason = ineligible;
        return std::nullopt;
    }
    auto source = spec.workload.make();
    if (!source.ok()) {
        // The per-point kernel reproduces the identical error row
        // for every point, so decline rather than fail.
        reason = "workload construction failed: " +
                 source.status().message();
        return std::nullopt;
    }
    GeometryGrid grid;
    grid.lineBytes = spec.base.lineBytes;
    grid.write = spec.base.write;
    grid.writeMiss = spec.base.writeMiss;
    for (std::uint64_t value : spec.values) {
        CacheConfig config = spec.base;
        config.sizeBytes = value;
        if (config.validate().ok())
            grid.addConfig(config);
    }
    if (grid.setCounts.empty()) {
        reason = "no sweep value yields a valid geometry";
        return std::nullopt;
    }
    try {
        return runStackSim(grid, *source.value(), spec.refs,
                           spec.warmupRefs);
    } catch (const StatusError &e) {
        // An access wider than the line: the per-point kernel
        // raises the identical error for every point, so decline.
        reason = "stack-sim pass failed: " + e.status().message();
        return std::nullopt;
    }
}

/** One point's cells looked up in @p surface.  An invalid point
 *  fails with the CacheConfig::validate() status the per-point
 *  cache constructor raises. */
Expected<std::vector<Cell>>
lookUpGeometryPoint(const GeometryHitSurface &surface,
                    const Point &point)
{
    auto stats = surface.statsFor(point.cache);
    if (!stats.ok())
        return stats.status();
    return ratioCells(CacheRunResult{point.cache, stats.value()});
}

} // namespace

Expected<std::vector<Cell>>
priceGeometryPoint(const Point &point)
{
    auto source = point.workload.make();
    if (!source.ok())
        return source.status();
    return ratioCells(runCacheSim(point.cache, *source.value(),
                                  point.refs, point.warmupRefs));
}

Scenario
makeGeometryScenario(const GeometrySweep &spec)
{
    UATM_ASSERT(!spec.values.empty(), "geometry sweep has no values");
    const char *axis = geometryAxisName(spec.axis);
    Scenario scenario(
        spec.axis == GeometrySweep::Axis::Size ? "cache_size_sweep"
                                               : "line_size_sweep",
        "cache geometry sweep over the " + std::string(axis) +
            " axis");
    scenario.cache = spec.base;
    scenario.workload = spec.workload;
    scenario.refs = spec.refs;
    scenario.warmupRefs = spec.warmupRefs;

    std::vector<double> values;
    values.reserve(spec.values.size());
    for (std::uint64_t value : spec.values)
        values.push_back(static_cast<double>(value));

    const bool size_axis = spec.axis == GeometrySweep::Axis::Size;
    scenario.sweep(axis, values,
                   [size_axis](Point &point, const AxisValue &v) {
                       if (size_axis)
                           point.cache.sizeBytes =
                               static_cast<std::uint64_t>(v.value);
                       else
                           point.cache.lineBytes =
                               static_cast<std::uint32_t>(v.value);
                   });
    return scenario;
}

ResultTable
runGeometrySweep(const GeometrySweep &spec, Runner &runner,
                 std::vector<SweepPoint> *points)
{
    Scenario scenario = makeGeometryScenario(spec);
    const std::string axis = geometryAxisName(spec.axis);

    // The one dispatch decision.  The line axis (a new line size
    // remaps every reference) and a forced per-point engine are
    // per-point by design; any other sweep takes one stack-sim
    // pass unless it declines, which is logged and counted.
    const bool structural =
        spec.axis == GeometrySweep::Axis::Line ||
        spec.engine == GeometrySweep::Engine::PerPoint;
    std::string reason;
    const std::optional<GeometryHitSurface> surface =
        structural ? std::nullopt : stackSimSurface(spec, reason);
    noteSweepDispatch(surface.has_value(), structural, reason);

    // The one kernel: look the point up when the surface exists,
    // price it on its own otherwise.  The surface was computed on
    // this thread, so the merged table is byte-identical across
    // engines and thread counts.
    std::vector<SweepPoint> samples(scenario.pointCount());
    ResultTable table = runner.run(
        scenario, {"hit_ratio", "miss_ratio", "flush_ratio"},
        [&axis, &samples, &surface](const Point &point)
            -> Expected<std::vector<Cell>> {
            auto cells = surface
                             ? lookUpGeometryPoint(*surface, point)
                             : priceGeometryPoint(point);
            if (!cells.ok())
                return cells.status();
            const std::vector<Cell> &ratios = cells.value();
            samples[point.index] = SweepPoint{
                static_cast<std::uint64_t>(
                    okOrThrow(point.coord(axis))),
                ratios[0].value(), ratios[1].value(),
                ratios[2].value()};
            return cells;
        });
    if (points)
        *points = std::move(samples);
    return table;
}

Scenario
makePhiScenario(const PhiExperiment &experiment)
{
    Scenario scenario("phi_measurement",
                      "stalling factor phi over the six profiles "
                      "(Figure 1)");
    scenario.cache = experiment.cache;
    scenario.refs = experiment.refs;
    scenario.workload = WorkloadSpec::none();
    scenario.sweepWorkloads(Spec92Profile::names());
    return scenario;
}

std::vector<PhiResult>
measurePhiAllProfilesParallel(const PhiExperiment &experiment,
                              unsigned threads)
{
    Scenario scenario = makePhiScenario(experiment);
    std::vector<PhiResult> results(scenario.pointCount());
    Runner runner(RunnerOptions{threads});
    runner.run(scenario, {"phi", "pct_of_full"},
               [&experiment, &results](const Point &point) {
                   PhiResult result = measurePhi(
                       experiment,
                       okOrThrow(point.coordLabel("workload")));
                   results[point.index] = result;
                   return std::vector<Cell>{
                       Cell::num(result.phi, 3),
                       Cell::num(result.percentOfFull, 1)};
               });
    appendPhiAverage(results);
    return results;
}

Scenario
makeFeatureGridScenario(const FeatureGrid &grid)
{
    UATM_ASSERT(!grid.cycleTimes.empty(),
                "feature grid has no cycle times");
    UATM_ASSERT(!grid.features.empty(),
                "feature grid has no features");
    Scenario scenario("feature_grid",
                      "Sec. 5.3 unified feature comparison");
    scenario.workload = WorkloadSpec::none();

    // Analytic scenario: the coordinates are the whole state, so
    // both appliers leave the point's configs untouched.
    scenario.sweep("mu_m", grid.cycleTimes,
                   [](Point &, const AxisValue &) {});

    std::vector<AxisValue> features;
    features.reserve(grid.features.size());
    for (TradeFeature feature : grid.features)
        features.push_back(
            AxisValue{tradeFeatureName(feature),
                      static_cast<double>(
                          static_cast<int>(feature))});
    scenario.sweepLabeled("feature", std::move(features),
                          [](Point &, const AxisValue &) {});
    return scenario;
}

ResultTable
runFeatureGrid(const FeatureGrid &grid, Runner &runner)
{
    Scenario scenario = makeFeatureGridScenario(grid);
    return runner.run(
        scenario, {"miss_factor", "dhr", "equiv_hr"},
        [&grid](const Point &point) {
            TradeoffContext ctx = grid.ctx;
            ctx.machine = grid.ctx.machine.withCycleTime(
                okOrThrow(point.coord("mu_m")));
            const auto feature = static_cast<TradeFeature>(
                static_cast<int>(okOrThrow(point.coord("feature"))));
            const double r = featureMissFactor(ctx, feature, grid.q,
                                               grid.phiPartial);
            const double dhr =
                hitRatioTraded(r, grid.baseHitRatio);
            return std::vector<Cell>{
                Cell::num(r, 3), Cell::num(dhr, 4),
                Cell::num(grid.baseHitRatio - dhr, 4)};
        });
}

LineTradeoffResult
runLineTradeoff(const LineTradeoff &spec, Runner &runner)
{
    UATM_ASSERT(!spec.lineSizes.empty(),
                "line tradeoff has no line sizes");

    GeometrySweep sweep;
    sweep.axis = GeometrySweep::Axis::Line;
    sweep.base = spec.base;
    sweep.workload = spec.workload;
    sweep.values.assign(spec.lineSizes.begin(),
                        spec.lineSizes.end());
    sweep.refs = spec.refs;
    sweep.warmupRefs = spec.warmupRefs;

    std::vector<SweepPoint> points;
    runGeometrySweep(sweep, runner, &points);
    // A failed point leaves an empty sample; report why it failed,
    // not the malformed table its sample would make.
    if (const auto &failures = runner.lastStats().failures;
        !failures.empty())
        throw StatusError(failures.front().status);

    MissRatioTable missRatios =
        MissRatioTable::fromSweep("measured", points);

    LineTradeoffResult result{
        std::move(missRatios),
        ResultTable("line_tradeoff",
                    {"line", "miss_ratio", "smith_objective",
                     "reduced_delay"}),
        0, 0};
    result.recommended = tradeoffOptimalLine(
        result.missRatios, spec.delay, spec.baseLine);
    result.smith = smithOptimalLine(result.missRatios, spec.delay);

    for (const auto &entry : result.missRatios.points()) {
        const double objective = spec.delay.smithObjective(
            entry.missRatio, static_cast<double>(entry.lineBytes));
        Cell reduction = Cell::text("-");
        if (entry.lineBytes > spec.baseLine)
            reduction = Cell::num(
                reducedDelay(result.missRatios, spec.delay,
                             spec.baseLine, entry.lineBytes),
                kRatioPrecision);
        result.table.addRow(
            {Cell::integer(entry.lineBytes),
             Cell::num(entry.missRatio, kRatioPrecision),
             Cell::num(objective, 4), std::move(reduction)});
    }
    return result;
}

} // namespace uatm::exp
