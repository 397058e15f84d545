/**
 * @file
 * Tests for the experiment layer: scenario expansion order, the
 * ResultTable renderers, and — the core contract — that the
 * sharded Runner merges results bit-identically at any thread
 * count, including against the serial reference paths.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "cache/sweep.hh"
#include "exp/result_table.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "exp/scenarios.hh"
#include "exp/workload_spec.hh"
#include "expect_status.hh"
#include "obs/trace_event.hh"
#include "trace/generators.hh"

namespace uatm::exp {
namespace {

// ------------------------------------------------------- Scenario

TEST(Scenario, NoAxesExpandToOnePoint)
{
    Scenario scenario("trivial");
    EXPECT_EQ(scenario.pointCount(), 1u);
    const auto points = scenario.expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].index, 0u);
    EXPECT_TRUE(points[0].coords.empty());
}

TEST(Scenario, ExpansionIsRowMajorFirstAxisSlowest)
{
    Scenario scenario("grid");
    scenario.sweep("a", {1, 2},
                   [](Point &, const AxisValue &) {});
    scenario.sweep("b", {10, 20, 30},
                   [](Point &, const AxisValue &) {});
    EXPECT_EQ(scenario.pointCount(), 6u);

    const auto points = scenario.expand();
    ASSERT_EQ(points.size(), 6u);
    const double expected[][2] = {{1, 10}, {1, 20}, {1, 30},
                                  {2, 10}, {2, 20}, {2, 30}};
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].index, i);
        EXPECT_EQ(points[i].coord("a").value(), expected[i][0]);
        EXPECT_EQ(points[i].coord("b").value(), expected[i][1]);
    }
}

TEST(Scenario, AppliersSeeBaseConfigAndMutatePoints)
{
    Scenario scenario("applied");
    scenario.cache.sizeBytes = 4096;
    scenario.sweep("size", {8192, 16384},
                   [](Point &point, const AxisValue &v) {
                       point.cache.sizeBytes =
                           static_cast<std::uint64_t>(v.value);
                   });
    const auto points = scenario.expand();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].cache.sizeBytes, 8192u);
    EXPECT_EQ(points[1].cache.sizeBytes, 16384u);
}

TEST(Scenario, PointLabelAndMissingAxis)
{
    Scenario scenario("labels");
    scenario.sweepLabeled("feature", {{"FS", 0}},
                          [](Point &, const AxisValue &) {});
    const auto points = scenario.expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].label(), "feature=FS");
    EXPECT_EQ(points[0].coordLabel("feature").value(), "FS");
    const auto missing = points[0].coord("nope");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), ErrorCode::NotFound);
    EXPECT_FALSE(points[0].coordLabel("nope").ok());
}

TEST(Scenario, NumericLabelsAreIntegralWhenExact)
{
    EXPECT_EQ(AxisValue::ofNumber(8192).label, "8192");
    EXPECT_EQ(AxisValue::ofNumber(0.5).label, "0.5");
}

// ---------------------------------------------------- ResultTable

TEST(ResultTable, TextCsvAndJsonRender)
{
    ResultTable table("demo", {"name", "x"});
    table.addRow({Cell::text("alpha"), Cell::num(1.5, 2)});
    table.addRow({Cell::text("has,comma"), Cell::integer(7)});
    table.addRow({Cell::text("q\"q"), Cell::integer(8)});

    const std::string text = table.renderText();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("1.50"), std::string::npos);

    const std::string csv = table.renderCsv();
    EXPECT_NE(csv.find("name,x"), std::string::npos);
    EXPECT_NE(csv.find("\"has,comma\""), std::string::npos)
        << csv;
    EXPECT_NE(csv.find("\"q\"\"q\""), std::string::npos) << csv;

    const std::string json = table.renderJson();
    EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
    EXPECT_NE(json.find("\"demo\""), std::string::npos);
    // Numeric cells emit as JSON numbers, not strings.
    EXPECT_NE(json.find("7"), std::string::npos);
    EXPECT_EQ(json.find("\"7\""), std::string::npos);
}

TEST(ResultTable, CsvQuotesOnlyCellsThatNeedIt)
{
    ResultTable table("demo", {"name", "x"});
    table.addRow({Cell::text("plain"), Cell::integer(1)});
    table.addRow({Cell::text("two\nlines"), Cell::integer(2)});
    EXPECT_EQ(table.renderCsv(), "name,x\nplain,1\n\"two\nlines\",2\n");
}

TEST(ResultTable, EmitReportsAFailedWrite)
{
    // The CSV fits in the stream's buffer, so the write fails only
    // when close() flushes it.
    ResultTable table("demo", {"name", "x"});
    table.addRow({Cell::text("alpha"), Cell::num(1.5, 2)});
    table.addRow({Cell::text("beta"), Cell::integer(7)});
    const Status status = table.emit(TableFormat::Csv, "/dev/full");
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::IoError);
}

TEST(ResultTable, RowArityIsChecked)
{
    ResultTable table("demo", {"a", "b"});
    EXPECT_DEATH(table.addRow({Cell::text("only one")}),
                 "row arity");
}

TEST(ResultTable, ParseFormatNames)
{
    EXPECT_EQ(parseTableFormat("text").value(), TableFormat::Text);
    EXPECT_EQ(parseTableFormat("csv").value(), TableFormat::Csv);
    EXPECT_EQ(parseTableFormat("json").value(), TableFormat::Json);
    const auto bad = parseTableFormat("yaml");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(bad.status().message().find("unknown table format"),
              std::string::npos);
}

// --------------------------------------------------- WorkloadSpec

TEST(WorkloadSpec, MakeIsDeterministicAndRewound)
{
    const WorkloadSpec spec = WorkloadSpec::spec92("swm256", 17);
    auto a = okOrThrow(spec.make());
    auto b = okOrThrow(spec.make());
    EXPECT_EQ(a->drain(400), b->drain(400));
}

TEST(WorkloadSpec, IFetchVariantInterleavesDeterministically)
{
    WorkloadSpec spec = WorkloadSpec::spec92("ear", 3);
    spec.withIFetch = true;
    auto a = okOrThrow(spec.make());
    auto b = okOrThrow(spec.make());
    const auto refs = a->drain(500);
    EXPECT_EQ(refs, b->drain(500));
    bool sawIFetch = false;
    for (const auto &ref : refs)
        sawIFetch |= ref.kind == RefKind::IFetch;
    EXPECT_TRUE(sawIFetch);
}

// --------------------------------------------------------- Runner

/** A mixed scenario: simulated sweep axis x workload axis. */
Scenario
mixedScenario()
{
    Scenario scenario("mixed");
    scenario.refs = 5000;
    scenario.workload = WorkloadSpec::spec92("nasa7", 7);
    scenario.cache.assoc = 2;
    scenario.cache.lineBytes = 32;
    scenario.sweep("size", {4096, 8192, 16384},
                   [](Point &point, const AxisValue &v) {
                       point.cache.sizeBytes =
                           static_cast<std::uint64_t>(v.value);
                   });
    scenario.sweepWorkloads({"nasa7", "ear"});
    return scenario;
}

std::vector<Cell>
mixedKernel(const Point &point)
{
    auto source = okOrThrow(point.workload.make());
    const auto run = runCacheSim(point.cache, *source, point.refs);
    return {Cell::num(run.hitRatio(), 6),
            Cell::num(run.missRatio(), 6)};
}

TEST(Runner, OneVsEightThreadsIsByteIdentical)
{
    Runner serial(RunnerOptions{1});
    Runner wide(RunnerOptions{8});
    const ResultTable a =
        serial.run(mixedScenario(), {"hr", "mr"}, mixedKernel);
    const ResultTable b =
        wide.run(mixedScenario(), {"hr", "mr"}, mixedKernel);
    EXPECT_EQ(a.renderText(), b.renderText());
    EXPECT_EQ(a.renderCsv(), b.renderCsv());
    EXPECT_EQ(a.renderJson(), b.renderJson());
    // Serial runs execute inline on the calling thread.
    EXPECT_EQ(serial.lastStats().threadsUsed, 0u);
    EXPECT_EQ(serial.lastStats().pointCount, 6u);
    EXPECT_EQ(serial.lastStats().pointsFailed, 0u);
}

TEST(Runner, RowsMergeInExpansionOrder)
{
    Scenario scenario("ordered");
    scenario.sweep("i", {0, 1, 2, 3, 4, 5, 6, 7},
                   [](Point &, const AxisValue &) {});
    Runner runner(RunnerOptions{4});
    const ResultTable table = runner.run(
        scenario, {"twice"}, [](const Point &point) {
            return std::vector<Cell>{
                Cell::num(2.0 * point.coord("i").value(), 0)};
        });
    ASSERT_EQ(table.rows(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(table.at(i, 0).str(), std::to_string(i));
        EXPECT_EQ(table.at(i, 1).value(), 2.0 * i);
    }
}

TEST(Runner, ZeroThreadsMeansHardwareConcurrency)
{
    Runner runner(RunnerOptions{0});
    unsigned expected = std::thread::hardware_concurrency();
    if (expected == 0)
        expected = 1;
    // Capped by the number of points.
    EXPECT_EQ(runner.effectiveThreads(1000), expected);
    EXPECT_EQ(runner.effectiveThreads(1), 1u);
}

TEST(Runner, KernelExceptionPropagatesUnderFailFast)
{
    Scenario scenario("throws");
    scenario.sweep("i", {0, 1, 2, 3},
                   [](Point &, const AxisValue &) {});
    Runner runner(RunnerOptions{2, /*failFast=*/true});
    EXPECT_THROW(
        runner.run(scenario, {"x"},
                   [](const Point &point) -> std::vector<Cell> {
                       if (point.index == 2)
                           throw std::runtime_error("boom");
                       return {Cell::num(1.0)};
                   }),
        std::runtime_error);
    // Regression: stats must reflect the aborted run, not go stale.
    EXPECT_EQ(runner.lastStats().pointCount, 4u);
    EXPECT_GE(runner.lastStats().pointsFailed, 1u);
}

TEST(Runner, FaultIsolationEmitsErrorRows)
{
    Scenario scenario("isolated");
    scenario.sweep("i", {0, 1, 2, 3},
                   [](Point &, const AxisValue &) {});
    Runner runner(RunnerOptions{2});
    const ResultTable table = runner.run(
        scenario, {"x"},
        [](const Point &point) -> std::vector<Cell> {
            if (point.index == 2)
                throw std::runtime_error("boom");
            return {Cell::num(1.0)};
        });

    // The run completes: the failed point degrades to an error row
    // instead of killing the sweep.
    ASSERT_EQ(table.rows(), 4u);
    EXPECT_TRUE(table.at(2, 1).isError());
    EXPECT_EQ(table.at(2, 1).str(), "!kernel_error");
    EXPECT_FALSE(table.at(1, 1).isError());

    EXPECT_EQ(runner.lastStats().pointCount, 4u);
    EXPECT_EQ(runner.lastStats().pointsFailed, 1u);
    const auto &failures = runner.lastStats().failures;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].index, 2u);
    EXPECT_EQ(failures[0].status.code(), ErrorCode::KernelError);
    EXPECT_NE(failures[0].status.message().find("boom"),
              std::string::npos);
}

TEST(Runner, FaultIsolationIsByteIdenticalAcrossThreads)
{
    const auto kernel =
        [](const Point &point) -> Expected<std::vector<Cell>> {
        if (point.index == 3)
            return Status::invalidArgument("degenerate geometry");
        if (point.index == 5)
            throw std::runtime_error("boom");
        return std::vector<Cell>{
            Cell::num(3.0 * point.coord("i").value(), 0)};
    };
    auto makeScenario = [] {
        Scenario scenario("grid");
        scenario.sweep("i", {0, 1, 2, 3, 4, 5, 6, 7},
                       [](Point &, const AxisValue &) {});
        return scenario;
    };

    Runner one(RunnerOptions{1});
    Runner eight(RunnerOptions{8});
    const ResultTable a = one.run(makeScenario(), {"x"}, kernel);
    const ResultTable b = eight.run(makeScenario(), {"x"}, kernel);
    EXPECT_EQ(a.renderCsv(), b.renderCsv());
    EXPECT_EQ(a.renderText(), b.renderText());
    EXPECT_EQ(a.renderJson(), b.renderJson());
    EXPECT_EQ(one.lastStats().pointsFailed, 2u);
    EXPECT_EQ(eight.lastStats().pointsFailed, 2u);
}

TEST(Runner, StatusReturnAndStatusErrorKeepTheirCodes)
{
    Scenario scenario("typed");
    scenario.sweep("i", {0, 1, 2},
                   [](Point &, const AxisValue &) {});
    Runner runner(RunnerOptions{1});
    const ResultTable table = runner.run(
        scenario, {"x"},
        [](const Point &point) -> Expected<std::vector<Cell>> {
            if (point.index == 0)
                return Status::notFound("no such profile");
            if (point.index == 1)
                throw StatusError(
                    Status::outOfRange("hr out of range"));
            return std::vector<Cell>{Cell::num(1.0)};
        });
    EXPECT_EQ(table.at(0, 1).str(), "!not_found");
    EXPECT_EQ(table.at(1, 1).str(), "!out_of_range");
    EXPECT_FALSE(table.at(2, 1).isError());
    EXPECT_EQ(runner.lastStats().pointsFailed, 2u);
}

/** A distinct exception type for checking fail-fast rethrow. */
struct BespokeError : std::runtime_error
{
    BespokeError() : std::runtime_error("bespoke") {}
};

TEST(Runner, FailFastRethrowsTheOriginalException)
{
    Scenario scenario("failfast");
    scenario.sweep("i", {0, 1, 2, 3},
                   [](Point &, const AxisValue &) {});
    Runner runner(RunnerOptions{2, /*failFast=*/true});
    EXPECT_THROW(
        runner.run(scenario, {"x"},
                   [](const Point &point) -> std::vector<Cell> {
                       if (point.index == 1)
                           throw BespokeError();
                       return {Cell::num(1.0)};
                   }),
        BespokeError);
}

TEST(Runner, FailFastWrapsStatusReturnsAsStatusError)
{
    Scenario scenario("failfast-status");
    scenario.sweep("i", {0, 1},
                   [](Point &, const AxisValue &) {});
    Runner runner(RunnerOptions{1, /*failFast=*/true});
    try {
        runner.run(scenario, {"x"},
                   [](const Point &) -> Expected<std::vector<Cell>> {
                       return Status::invalidArgument("bad input");
                   });
        FAIL() << "expected StatusError";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), ErrorCode::InvalidArgument);
    }
}

TEST(Runner, TracerNoLongerForcesSerialAndArmsTelemetry)
{
    obs::globalTracer().setEnabled(true);
    Runner runner(RunnerOptions{4});
    Scenario scenario("traced");
    scenario.sweep("i", {0, 1, 2, 3},
                   [](Point &, const AxisValue &) {});
    runner.run(scenario, {"x"}, [](const Point &) {
        return std::vector<Cell>{Cell::num(0.0)};
    });
    const bool reenabled = obs::globalTracer().enabled();
    obs::globalTracer().setEnabled(false);
    obs::globalTracer().clear();
    // The tracer used to force a traced run down to one thread;
    // now the runner suspends it around the pool and replays
    // per-worker spans afterwards, so the full pool runs — and
    // the tracer must come back enabled after the join.
    EXPECT_TRUE(reenabled);
    EXPECT_EQ(runner.lastStats().threadsRequested, 4u);
    EXPECT_EQ(runner.lastStats().threadsUsed, 4u);
    EXPECT_EQ(runner.lastStats().workers.size(), 4u);
}

// ------------------------------------------- parallel == serial

TEST(Scenarios, ParallelPhiMatchesSerial)
{
    PhiExperiment experiment;
    experiment.refs = 20000;

    const auto serial = measurePhiAllProfiles(experiment);
    const auto parallel =
        measurePhiAllProfilesParallel(experiment, 4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].workload, parallel[i].workload);
        EXPECT_EQ(serial[i].phi, parallel[i].phi);
        EXPECT_EQ(serial[i].percentOfFull,
                  parallel[i].percentOfFull);
    }
    EXPECT_EQ(parallel.back().workload, "average");
}

TEST(Scenarios, FeatureGridMatchesRankFeatures)
{
    FeatureGrid grid;
    grid.ctx.machine.busWidth = 4;
    grid.ctx.machine.lineBytes = 32;
    grid.baseHitRatio = 0.95;
    grid.phiPartial = 6.5;
    grid.q = 2.0;
    grid.cycleTimes = {8};

    Runner runner(RunnerOptions{4});
    const ResultTable table = runFeatureGrid(grid, runner);
    ASSERT_EQ(table.rows(), 4u);

    TradeoffContext ctx = grid.ctx;
    ctx.machine = grid.ctx.machine.withCycleTime(8);
    for (std::size_t row = 0; row < table.rows(); ++row) {
        const TradeFeature feature = grid.features[row];
        const double expected =
            featureMissFactor(ctx, feature, grid.q,
                              grid.phiPartial);
        EXPECT_DOUBLE_EQ(table.at(row, 2).value(), expected)
            << tradeFeatureName(feature);
    }
}

TEST(Scenarios, LineTradeoffAgreesWithSmith)
{
    LineTradeoff spec;
    spec.base.sizeBytes = 8 * 1024;
    spec.base.assoc = 2;
    spec.workload = WorkloadSpec::spec92("nasa7", 11);
    spec.lineSizes = {8, 16, 32, 64};
    spec.baseLine = 8;
    spec.refs = 20000;

    Runner runner(RunnerOptions{4});
    const auto result = runLineTradeoff(spec, runner);
    EXPECT_EQ(result.table.rows(), spec.lineSizes.size());
    EXPECT_TRUE(result.missRatios.has(result.recommended));
    EXPECT_TRUE(result.missRatios.has(result.smith));
    // Sec. 5.4's core claim: the Eq. 19 selector and Smith's
    // criterion pick the same line whenever Smith's optimum lies
    // at or above the base line.
    if (result.smith >= spec.baseLine) {
        EXPECT_EQ(result.recommended, result.smith);
    }
}

TEST(Scenarios, LineTradeoffThrowsTheFirstFailedPoint)
{
    // Every point of a zero-byte cache fails; the table must not be
    // built from their empty samples.
    LineTradeoff spec;
    spec.base.sizeBytes = 0;
    spec.base.assoc = 2;
    spec.workload = WorkloadSpec::spec92("nasa7", 11);
    spec.lineSizes = {8, 16};
    spec.baseLine = 8;
    spec.refs = 2000;

    Runner runner(RunnerOptions{1});
    EXPECT_TRUE(throwsStatus([&] { runLineTradeoff(spec, runner); },
                             ErrorCode::InvalidArgument,
                             "cache size 0 is not a power of two"));
}

void
expectSamePoints(const std::vector<SweepPoint> &a,
                 const std::vector<SweepPoint> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].value, b[i].value) << i;
        EXPECT_EQ(a[i].hitRatio, b[i].hitRatio) << i;
        EXPECT_EQ(a[i].missRatio, b[i].missRatio) << i;
        EXPECT_EQ(a[i].flushRatio, b[i].flushRatio) << i;
    }
}

TEST(Scenarios, GeometryScenarioTablesByteIdenticalAcrossThreads)
{
    GeometrySweep size;
    size.axis = GeometrySweep::Axis::Size;
    size.base.assoc = 2;
    size.base.lineBytes = 32;
    size.workload = WorkloadSpec::spec92("doduc", 2);
    size.values = {4096, 8192, 16384, 32768, 65536};
    size.refs = 10000;

    // The line axis runs per point, so its shards each simulate.
    GeometrySweep line;
    line.axis = GeometrySweep::Axis::Line;
    line.base.sizeBytes = 8 * 1024;
    line.base.assoc = 2;
    line.workload = WorkloadSpec::spec92("wave5", 31);
    line.values = {16, 32, 64};
    line.refs = 15000;

    for (const GeometrySweep &spec : {size, line}) {
        Runner one(RunnerOptions{1});
        Runner eight(RunnerOptions{8});
        std::vector<SweepPoint> a_points;
        std::vector<SweepPoint> b_points;
        const std::string a =
            runGeometrySweep(spec, one, &a_points).renderCsv();
        const std::string b =
            runGeometrySweep(spec, eight, &b_points).renderCsv();
        EXPECT_EQ(a, b);
        expectSamePoints(a_points, b_points);
    }
}

// ------------------------------------ stack-sim engine dispatch

TEST(Scenarios, StackSimAndPerPointEnginesAreByteIdentical)
{
    GeometrySweep spec;
    spec.axis = GeometrySweep::Axis::Size;
    spec.base.assoc = 2;
    spec.base.lineBytes = 32;
    spec.workload = WorkloadSpec::spec92("nasa7", 5);
    // 5000 is not a power of two: an injected per-point fault that
    // must degrade to the SAME error row under both engines.
    spec.values = {4096, 5000, 8192, 32768};
    spec.refs = 8000;
    spec.warmupRefs = 800;

    resetSweepDispatchStats();
    std::string reference;
    for (unsigned threads : {1u, 2u, 8u}) {
        GeometrySweep fast = spec;
        fast.engine = GeometrySweep::Engine::Auto;
        GeometrySweep brute = spec;
        brute.engine = GeometrySweep::Engine::PerPoint;

        Runner fast_runner(RunnerOptions{threads});
        Runner brute_runner(RunnerOptions{threads});
        std::vector<SweepPoint> fast_points;
        std::vector<SweepPoint> brute_points;
        const std::string a =
            runGeometrySweep(fast, fast_runner, &fast_points)
                .renderCsv();
        const std::string b =
            runGeometrySweep(brute, brute_runner, &brute_points)
                .renderCsv();
        EXPECT_EQ(a, b) << threads << " threads";
        // Beyond the rendered cells, the raw ratios are the same
        // doubles under both engines.  The failed 5000 point keeps
        // an empty sample.
        expectSamePoints(fast_points, brute_points);
        ASSERT_EQ(fast_points.size(), spec.values.size());
        for (std::size_t i : {0, 2, 3})
            EXPECT_EQ(fast_points[i].value, spec.values[i]);
        EXPECT_NE(a.find("!invalid_argument"), std::string::npos)
            << a;
        EXPECT_EQ(fast_runner.lastStats().pointsFailed, 1u);
        EXPECT_EQ(brute_runner.lastStats().pointsFailed, 1u);

        if (reference.empty())
            reference = a;
        else
            EXPECT_EQ(a, reference) << threads << " threads";
    }
    const SweepDispatchCounters counters = sweepDispatchCounters();
    EXPECT_EQ(counters.fastPath, 3u);
    EXPECT_EQ(counters.perPoint, 3u);
    EXPECT_EQ(counters.declined, 0u);
    resetSweepDispatchStats();
}

TEST(Scenarios, DeclinedSweepFallsBackToIdenticalPerPointRun)
{
    GeometrySweep spec;
    spec.axis = GeometrySweep::Axis::Size;
    spec.base.assoc = 2;
    spec.base.lineBytes = 32;
    spec.base.replacement = ReplacementKind::FIFO; // ineligible
    spec.workload = WorkloadSpec::spec92("ear", 9);
    spec.values = {4096, 16384};
    spec.refs = 5000;

    resetSweepDispatchStats();
    GeometrySweep brute = spec;
    brute.engine = GeometrySweep::Engine::PerPoint;
    Runner a(RunnerOptions{2});
    Runner b(RunnerOptions{2});
    EXPECT_EQ(runGeometrySweep(spec, a).renderCsv(),
              runGeometrySweep(brute, b).renderCsv());
    const SweepDispatchCounters counters = sweepDispatchCounters();
    EXPECT_EQ(counters.declined, 1u); // logged, counted, not silent
    EXPECT_EQ(counters.perPoint, 1u);
    resetSweepDispatchStats();
}

TEST(Scenarios, AccessWiderThanTheLineIsTheSameErrorRowOnBothEngines)
{
    // ycsb-a issues 8-byte accesses, which a 4-byte line cannot
    // hold.  Each point fails with InvalidArgument, and the
    // stack-sim pass declines instead of aborting the process.
    GeometrySweep spec;
    spec.axis = GeometrySweep::Axis::Size;
    spec.base.assoc = 2;
    spec.base.lineBytes = 4;
    spec.workload =
        valueOrFatal(WorkloadSpec::parse("ycsb-a:records=5000", 3));
    spec.values = {4096, 8192};
    spec.refs = 2000;

    resetSweepDispatchStats();
    GeometrySweep brute = spec;
    brute.engine = GeometrySweep::Engine::PerPoint;
    Runner a(RunnerOptions{2});
    Runner b(RunnerOptions{2});
    const std::string fast = runGeometrySweep(spec, a).renderCsv();
    EXPECT_EQ(fast, runGeometrySweep(brute, b).renderCsv());
    EXPECT_NE(fast.find("!invalid_argument"), std::string::npos)
        << fast;
    EXPECT_EQ(a.lastStats().pointsFailed, 2u);
    EXPECT_EQ(b.lastStats().pointsFailed, 2u);
    EXPECT_EQ(sweepDispatchCounters().declined, 1u);
    resetSweepDispatchStats();
}

TEST(SweepDispatchTest, CountersTrackFastAndDeclinedSweeps)
{
    // Under the Auto engine each sweep bumps exactly one counter:
    // an eligible size sweep the fast path, an ineligible one
    // declined, and the line axis per-point.
    resetSweepDispatchStats();
    GeometrySweep spec;
    spec.axis = GeometrySweep::Axis::Size;
    spec.base.lineBytes = 32;
    spec.workload = WorkloadSpec::spec92("nasa7", 11);
    spec.values = {4096, 8192};
    spec.refs = 2000;
    Runner runner(RunnerOptions{1});

    runGeometrySweep(spec, runner);
    SweepDispatchCounters counters = sweepDispatchCounters();
    EXPECT_EQ(counters.fastPath, 1u);
    EXPECT_EQ(counters.declined, 0u);
    EXPECT_EQ(counters.perPoint, 0u);

    GeometrySweep fifo = spec;
    fifo.base.replacement = ReplacementKind::FIFO;
    runGeometrySweep(fifo, runner);
    counters = sweepDispatchCounters();
    EXPECT_EQ(counters.fastPath, 1u);
    EXPECT_EQ(counters.declined, 1u);
    EXPECT_EQ(counters.perPoint, 0u);

    GeometrySweep line = spec;
    line.axis = GeometrySweep::Axis::Line;
    line.values = {16, 32};
    runGeometrySweep(line, runner);
    counters = sweepDispatchCounters();
    EXPECT_EQ(counters.fastPath, 1u);
    EXPECT_EQ(counters.declined, 1u);
    EXPECT_EQ(counters.perPoint, 1u);
    resetSweepDispatchStats();
}

} // namespace
} // namespace uatm::exp
