/**
 * @file
 * Tests for the runner's run record: per-worker recording on every
 * run, counters only under UATM_PERF, JSON round-trips, the
 * scaling diagnosis, the Amdahl fit, and the per-worker trace
 * replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "cpu/timing_engine.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/telemetry.hh"
#include "obs/json.hh"
#include "obs/trace_event.hh"
#include "trace/source.hh"

using namespace uatm;
using namespace uatm::exp;

namespace {

Scenario
fourPointScenario(const std::string &name = "telemetry-test")
{
    Scenario scenario(name);
    scenario.sweep("i", {0, 1, 2, 3},
                   [](Point &, const AxisValue &) {});
    return scenario;
}

Runner::Kernel
trivialKernel()
{
    return [](const Point &point)
               -> Expected<std::vector<Cell>> {
        return std::vector<Cell>{
            Cell::num(static_cast<double>(point.index))};
    };
}

/** Open file descriptors of this process; -1 without /proc. */
long
openDescriptors()
{
    std::error_code error;
    std::filesystem::directory_iterator it("/proc/self/fd", error);
    if (error)
        return -1;
    return std::distance(it, std::filesystem::directory_iterator());
}

} // namespace

TEST(RunnerTelemetry, EveryRunRecords)
{
    // Default options, no tracer, no environment: the record is
    // still complete.
    for (unsigned threads : {1u, 4u}) {
        Runner runner(RunnerOptions{threads});
        runner.run(fourPointScenario(), {"x"}, trivialKernel());
        const RunnerTelemetry &t = runner.lastStats();
        EXPECT_EQ(t.pointCount, 4u) << threads << " threads";
        EXPECT_EQ(t.points.size(), 4u) << threads << " threads";
        EXPECT_EQ(t.workers.size(), threads)
            << threads << " threads";
        EXPECT_EQ(t.pointLatency.count(), t.pointCount)
            << threads << " threads";
    }
}

TEST(RunnerTelemetry, WorkerCountersNeedUatmPerf)
{
    // UATM_PERF=0 leaves every worker's counter group closed,
    // whatever the host allows.
    const char *saved = std::getenv("UATM_PERF");
    const std::string previous = saved ? saved : "";
    setenv("UATM_PERF", "0", 1);
    for (unsigned threads : {1u, 2u}) {
        Runner runner(RunnerOptions{threads});
        runner.run(fourPointScenario(), {"x"}, trivialKernel());
        ASSERT_FALSE(runner.lastStats().workers.empty());
        for (const auto &worker : runner.lastStats().workers)
            EXPECT_FALSE(worker.counters.available)
                << "worker " << worker.worker << " of "
                << threads;
    }
    if (saved)
        setenv("UATM_PERF", previous.c_str(), 1);
    else
        unsetenv("UATM_PERF");
}

TEST(RunnerTelemetry, ArmedWorkerReadsTheThreadCounterGroup)
{
    // Under UATM_PERF a worker reads the group its thread keeps for
    // profile scopes instead of opening a second one, so an inline
    // run holds no counter descriptor beyond the caller's group.
    const char *saved = std::getenv("UATM_PERF");
    const std::string previous = saved ? saved : "";
    setenv("UATM_PERF", "1", 1);
    const obs::PerfCounterGroup &group = obs::threadPerfCounters();
    const long before = openDescriptors();
    long during = -1;
    Runner runner(RunnerOptions{1});
    runner.run(fourPointScenario(), {"x"},
               [&during](const Point &) {
                   during = openDescriptors();
                   return std::vector<Cell>{Cell::num(1.0)};
               });
    if (saved)
        setenv("UATM_PERF", previous.c_str(), 1);
    else
        unsetenv("UATM_PERF");

    EXPECT_EQ(during, before);
    ASSERT_EQ(runner.lastStats().workers.size(), 1u);
    const obs::PerfCounterValues &counters =
        runner.lastStats().workers[0].counters;
    EXPECT_EQ(counters.available, group.available());
    EXPECT_EQ(counters.mask & ~group.mask(), 0u);
}

TEST(RunnerTelemetry, ArmedSerialRunRecordsEveryPoint)
{
    Runner runner(RunnerOptions{1});
    runner.run(fourPointScenario(), {"x"}, trivialKernel());

    const RunnerTelemetry &t = runner.lastStats();
    EXPECT_EQ(t.scenario, "telemetry-test");
    EXPECT_EQ(t.threadsRequested, 1u);
    EXPECT_EQ(t.threadsUsed, 0u);  // inline, no thread spawned
    EXPECT_EQ(t.pointCount, 4u);
    EXPECT_EQ(t.pointsFailed, 0u);
    ASSERT_EQ(t.workers.size(), 1u);
    EXPECT_EQ(t.workers[0].points, 4u);
    ASSERT_EQ(t.points.size(), 4u);
    for (std::size_t i = 0; i < t.points.size(); ++i) {
        EXPECT_EQ(t.points[i].index, i);
        EXPECT_EQ(t.points[i].worker, 0u);
        EXPECT_FALSE(t.points[i].label.empty());
    }
    EXPECT_EQ(t.pointLatency.count(), 4u);
    // Worker kernel time covers at least the recorded points.
    std::uint64_t durations = 0;
    for (const auto &point : t.points)
        durations += point.durationNs;
    EXPECT_EQ(t.workers[0].kernelNs, durations);
}

TEST(RunnerTelemetry, ParallelRunCoversAllPointsOnce)
{
    Runner runner(RunnerOptions{4});
    runner.run(fourPointScenario(), {"x"}, trivialKernel());

    const RunnerTelemetry &t = runner.lastStats();
    EXPECT_EQ(t.threadsUsed, 4u);
    ASSERT_EQ(t.workers.size(), 4u);
    ASSERT_EQ(t.points.size(), 4u);
    std::set<std::size_t> indices;
    std::uint64_t workerPoints = 0;
    for (const auto &point : t.points)
        indices.insert(point.index);
    for (const auto &worker : t.workers)
        workerPoints += worker.points;
    EXPECT_EQ(indices.size(), 4u);  // each point exactly once
    EXPECT_EQ(workerPoints, 4u);
    // points is sorted by index, whatever the completion order.
    for (std::size_t i = 1; i < t.points.size(); ++i)
        EXPECT_LT(t.points[i - 1].index, t.points[i].index);
}

TEST(RunnerTelemetry, FailedPointsAreStillTimed)
{
    Runner runner(RunnerOptions{2});
    runner.run(fourPointScenario(), {"x"},
               [](const Point &point)
                   -> Expected<std::vector<Cell>> {
                   if (point.index == 2)
                       return Status::invalidArgument("boom");
                   return std::vector<Cell>{Cell::num(1.0)};
               });
    const RunnerTelemetry &t = runner.lastStats();
    EXPECT_EQ(t.pointsFailed, 1u);
    EXPECT_EQ(t.points.size(), 4u);  // the failed point included
    EXPECT_EQ(t.pointLatency.count(), 4u);
}

TEST(RunnerTelemetry, JsonRoundTripPreservesEverything)
{
    Runner runner(RunnerOptions{2});
    runner.run(fourPointScenario("roundtrip"), {"x"},
               trivialKernel());
    const RunnerTelemetry &before = runner.lastStats();

    const obs::JsonParseResult parsed =
        obs::parseJson(before.toJson());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const Expected<RunnerTelemetry> after =
        RunnerTelemetry::fromJson(parsed.value);
    ASSERT_TRUE(after.ok()) << after.status().toString();

    const RunnerTelemetry &t = after.value();
    EXPECT_EQ(t.scenario, before.scenario);
    EXPECT_EQ(t.threadsRequested, before.threadsRequested);
    EXPECT_EQ(t.threadsUsed, before.threadsUsed);
    EXPECT_EQ(t.pointCount, before.pointCount);
    EXPECT_EQ(t.wallNs, before.wallNs);
    EXPECT_EQ(t.expandNs, before.expandNs);
    EXPECT_EQ(t.mergeNs, before.mergeNs);
    ASSERT_EQ(t.workers.size(), before.workers.size());
    for (std::size_t i = 0; i < t.workers.size(); ++i) {
        EXPECT_EQ(t.workers[i].kernelNs,
                  before.workers[i].kernelNs);
        EXPECT_EQ(t.workers[i].idleNs, before.workers[i].idleNs);
        EXPECT_EQ(t.workers[i].lifetimeNs,
                  before.workers[i].lifetimeNs);
    }
    ASSERT_EQ(t.points.size(), before.points.size());
    for (std::size_t i = 0; i < t.points.size(); ++i) {
        EXPECT_EQ(t.points[i].index, before.points[i].index);
        EXPECT_EQ(t.points[i].durationNs,
                  before.points[i].durationNs);
        EXPECT_EQ(t.points[i].label, before.points[i].label);
    }
    // The histogram is rebuilt from the per-point durations.
    EXPECT_EQ(t.pointLatency.count(),
              before.pointLatency.count());
    EXPECT_EQ(t.pointLatency.p99(), before.pointLatency.p99());
}

namespace {

/** Synthetic counter block with the core scaling events set. */
obs::PerfCounterValues
syntheticCounters(double cycles, double instructions,
                  double misses, double migrations, double ctx)
{
    obs::PerfCounterValues v;
    v.available = true;
    v.timeEnabledNs = 1000.0;
    v.timeRunningNs = 1000.0;
    auto set = [&](obs::PerfEvent event, double value) {
        const auto i = static_cast<std::size_t>(event);
        v.value[i] = value;
        v.mask |= 1u << i;
    };
    set(obs::PerfEvent::Cycles, cycles);
    set(obs::PerfEvent::Instructions, instructions);
    set(obs::PerfEvent::CacheMisses, misses);
    set(obs::PerfEvent::CpuMigrations, migrations);
    set(obs::PerfEvent::ContextSwitches, ctx);
    return v;
}

} // namespace

TEST(RunnerTelemetry, JsonRoundTripPreservesWorkerCounters)
{
    Runner runner(RunnerOptions{2});
    runner.run(fourPointScenario("counters"), {"x"},
               trivialKernel());
    RunnerTelemetry before = runner.lastStats();
    ASSERT_FALSE(before.workers.empty());
    before.workers[0].counters =
        syntheticCounters(1000.0, 2500.0, 40.0, 3.0, 7.0);
    // Force one counter-less lane (the live run may have armed
    // real counters on every worker).
    ASSERT_GT(before.workers.size(), 1u);
    before.workers[1].counters = obs::PerfCounterValues{};

    const obs::JsonParseResult parsed =
        obs::parseJson(before.toJson());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const Expected<RunnerTelemetry> after =
        RunnerTelemetry::fromJson(parsed.value);
    ASSERT_TRUE(after.ok()) << after.status().toString();

    const obs::PerfCounterValues &c =
        after.value().workers[0].counters;
    ASSERT_TRUE(c.available);
    EXPECT_DOUBLE_EQ(c.get(obs::PerfEvent::Cycles), 1000.0);
    EXPECT_DOUBLE_EQ(c.get(obs::PerfEvent::Instructions),
                     2500.0);
    EXPECT_DOUBLE_EQ(c.ipc(), 2.5);
    EXPECT_DOUBLE_EQ(c.timeEnabledNs, 1000.0);
    // The other worker never got counters: it must come back
    // unavailable, not as zeros.
    ASSERT_GT(after.value().workers.size(), 1u);
    EXPECT_FALSE(after.value().workers[1].counters.available);
}

TEST(RunnerTelemetry, SchemaV1DocumentsStillParse)
{
    // A v1 document predates the per-worker counters object and
    // must load fine with counters reported unavailable.
    const obs::JsonParseResult parsed = obs::parseJson(
        "{\"kind\": \"runner_telemetry\", "
        "\"schema_version\": 1, \"armed\": true, "
        "\"scenario\": \"legacy\", \"threads_used\": 2, "
        "\"points\": 1, \"workers\": ["
        "{\"worker\": 0, \"points\": 1, \"kernel_ns\": 10, "
        "\"idle_ns\": 1, \"lifetime_ns\": 11}]}");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const Expected<RunnerTelemetry> loaded =
        RunnerTelemetry::fromJson(parsed.value);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value().scenario, "legacy");
    EXPECT_EQ(loaded.value().threadsUsed, 2u);
    EXPECT_EQ(loaded.value().pointCount, 1u);
    ASSERT_EQ(loaded.value().workers.size(), 1u);
    EXPECT_EQ(loaded.value().workers[0].kernelNs, 10u);
    EXPECT_EQ(loaded.value().workers[0].idleNs, 1u);
    EXPECT_EQ(loaded.value().workers[0].lifetimeNs, 11u);
    EXPECT_EQ(loaded.value().workers[0].acquireNs, 0u);
    EXPECT_FALSE(loaded.value().workers[0].counters.available);

    // A v2 document's "armed" flag is ignored, false included:
    // the record loads like any other.
    const obs::JsonParseResult v2 = obs::parseJson(
        "{\"kind\": \"runner_telemetry\", "
        "\"schema_version\": 2, \"armed\": false, "
        "\"scenario\": \"disarmed\", \"points\": 1, "
        "\"workers\": [{\"worker\": 0, \"points\": 1, "
        "\"counters\": {\"available\": false}}], "
        "\"point_durations\": [{\"index\": 0, \"ns\": 5}]}");
    ASSERT_TRUE(v2.ok) << v2.error;
    const Expected<RunnerTelemetry> loadedV2 =
        RunnerTelemetry::fromJson(v2.value);
    ASSERT_TRUE(loadedV2.ok()) << loadedV2.status().toString();
    EXPECT_EQ(loadedV2.value().scenario, "disarmed");
    EXPECT_EQ(loadedV2.value().pointCount, 1u);
    EXPECT_EQ(loadedV2.value().points.size(), 1u);
    EXPECT_EQ(loadedV2.value().pointLatency.count(), 1u);

    // Version 0 (or missing) is rejected, same as too-new.
    const obs::JsonParseResult tooOld = obs::parseJson(
        "{\"kind\": \"runner_telemetry\", "
        "\"schema_version\": 0, \"workers\": []}");
    ASSERT_TRUE(tooOld.ok);
    const Expected<RunnerTelemetry> refused =
        RunnerTelemetry::fromJson(tooOld.value);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().message(),
              "telemetry document: schema_version must be an integer "
              "in [1, 3] (got 0)");
}

TEST(CounterScaling, DetectsContentionSignatures)
{
    RunnerTelemetry lo;
    lo.threadsUsed = 1;
    lo.wallNs = 1000000000;  // 1 s
    WorkerTelemetry solo;
    solo.counters =
        syntheticCounters(1000.0, 2000.0, 10.0, 1.0, 100.0);
    lo.workers.push_back(solo);

    RunnerTelemetry hi;
    hi.threadsUsed = 8;
    hi.wallNs = 1000000000;
    for (int i = 0; i < 8; ++i) {
        WorkerTelemetry w;
        // Aggregate ipc 1.0 (down from 2.0), mpki 40 (up from
        // 5), 20 migrations/worker, 1600 ctx switches/s: every
        // heuristic should fire.
        w.counters = syntheticCounters(2000.0, 2000.0, 80.0,
                                       20.0, 200.0);
        hi.workers.push_back(w);
    }

    const CounterScaling scaling =
        analyzeCounterScaling({lo, hi});
    ASSERT_TRUE(scaling.ok);
    ASSERT_EQ(scaling.points.size(), 2u);
    EXPECT_EQ(scaling.points.front().threads, 1u);
    EXPECT_EQ(scaling.points.back().threads, 8u);
    EXPECT_DOUBLE_EQ(scaling.points.front().ipc, 2.0);
    EXPECT_DOUBLE_EQ(scaling.points.back().mpki, 40.0);
    EXPECT_TRUE(scaling.falseSharingSuspected);
    EXPECT_TRUE(scaling.migrationHeavy);
    EXPECT_TRUE(scaling.contextSwitchHeavy);
    EXPECT_FALSE(scaling.verdict.empty());
}

TEST(CounterScaling, HealthyRunsRaiseNoFlags)
{
    std::vector<RunnerTelemetry> runs;
    for (unsigned threads : {1u, 4u}) {
        RunnerTelemetry t;
        t.threadsUsed = threads;
        t.wallNs = 1000000000;
        for (unsigned i = 0; i < threads; ++i) {
            WorkerTelemetry w;
            w.counters = syntheticCounters(1000.0, 2000.0,
                                           10.0, 0.0, 10.0);
            t.workers.push_back(w);
        }
        runs.push_back(t);
    }
    const CounterScaling scaling = analyzeCounterScaling(runs);
    ASSERT_TRUE(scaling.ok);
    EXPECT_FALSE(scaling.falseSharingSuspected);
    EXPECT_FALSE(scaling.migrationHeavy);
    EXPECT_FALSE(scaling.contextSwitchHeavy);
    EXPECT_EQ(scaling.verdict,
              "no contention signature in the counters");
}

TEST(CounterScaling, CounterlessRunsAreNotOk)
{
    RunnerTelemetry t;
    t.threadsUsed = 2;
    t.workers.resize(2);
    const CounterScaling scaling = analyzeCounterScaling({t});
    EXPECT_FALSE(scaling.ok);
    EXPECT_TRUE(scaling.points.empty());
    EXPECT_FALSE(scaling.verdict.empty());
}

TEST(RunnerTelemetry, FileRoundTripAndLoadErrors)
{
    Runner runner(RunnerOptions{1});
    runner.run(fourPointScenario(), {"x"}, trivialKernel());

    const std::string path =
        testing::TempDir() + "uatm_telemetry_roundtrip.json";
    ASSERT_TRUE(
        runner.lastStats().writeJson(path).ok());
    const Expected<RunnerTelemetry> loaded =
        RunnerTelemetry::load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value().pointCount, 4u);
    std::remove(path.c_str());

    EXPECT_FALSE(
        RunnerTelemetry::load("/nonexistent/telemetry.json")
            .ok());
}

TEST(RunnerTelemetry, WriteJsonReportsAFailedWrite)
{
    Runner runner(RunnerOptions{1});
    runner.run(fourPointScenario(), {"x"}, trivialKernel());
    const Status status = runner.lastStats().writeJson("/dev/full");
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::IoError);
}

TEST(RunnerTelemetry, FromJsonRejectsForeignDocuments)
{
    const obs::JsonParseResult notTelemetry =
        obs::parseJson("{\"kind\": \"bench\"}");
    ASSERT_TRUE(notTelemetry.ok);
    EXPECT_FALSE(
        RunnerTelemetry::fromJson(notTelemetry.value).ok());

    const obs::JsonParseResult badVersion = obs::parseJson(
        "{\"kind\": \"runner_telemetry\", "
        "\"schema_version\": 999, \"workers\": []}");
    ASSERT_TRUE(badVersion.ok);
    EXPECT_FALSE(
        RunnerTelemetry::fromJson(badVersion.value).ok());
}

TEST(RunnerTelemetry, FromJsonRefusesNumbersItsFieldsCannotHold)
{
    // Each value used to reach a bare static_cast: run_report
    // printed "18446744073709551611 points" for "points": -5, and a
    // string read as 0.
    const std::string head =
        "{\"kind\": \"runner_telemetry\", \"schema_version\": 3, ";
    struct Case
    {
        std::string body;
        const char *message;
    };
    const Case cases[] = {
        {"\"points\": -5, \"workers\": []}",
         "points must be an integer in [0, 18446744073709551615] "
         "(got -5)"},
        {"\"points\": \"many\", \"workers\": []}",
         "points must be an integer in [0, 18446744073709551615] "
         "(got \"many\")"},
        {"\"threads_used\": 1e30, \"workers\": []}",
         "threads_used must be an integer in [0, 4294967295] "
         "(got 1e30)"},
        {"\"wall_ns\": 1e300, \"workers\": []}",
         "wall_ns must be an integer in [0, 18446744073709551615] "
         "(got 1e300)"},
        {"\"workers\": [], \"point_durations\": "
         "[{\"index\": 0, \"ns\": -3}]}",
         "point_durations[0].ns must be an integer in "
         "[0, 18446744073709551615] (got -3)"},
        {"\"workers\": [], \"point_durations\": "
         "[{\"index\": 0}, {\"index\": -1}]}",
         "point_durations[1].index must be an integer in "
         "[0, 18446744073709551615] (got -1)"},
        {"\"workers\": [{\"worker\": 0, \"counters\": "
         "{\"available\": 1}}]}",
         "workers[0].counters.available must be a bool (got 1)"},
        {"\"workers\": {}}", "workers must be an array (got an object)"},
        {"\"points\": 1}", "workers is required"},
    };
    for (const Case &c : cases) {
        const obs::JsonParseResult parsed = obs::parseJson(head + c.body);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        const Expected<RunnerTelemetry> loaded =
            RunnerTelemetry::fromJson(parsed.value);
        ASSERT_FALSE(loaded.ok()) << c.body;
        EXPECT_EQ(loaded.status().code(), ErrorCode::ParseError)
            << c.body;
        EXPECT_EQ(loaded.status().message(),
                  std::string("telemetry document: ") + c.message);
    }
}

TEST(RunnerTelemetry, TracedParallelRunEmitsPerWorkerTracks)
{
    obs::EventTracer &tracer = obs::globalTracer();
    tracer.clear();
    tracer.setEnabled(true);
    RunnerOptions options;
    options.threads = 2;
    Runner runner(options);
    runner.run(fourPointScenario("traced-pool"), {"x"},
               trivialKernel());
    tracer.setEnabled(false);

    std::set<std::string> categories;
    std::size_t pointSpans = 0;
    for (const auto &event : tracer.events()) {
        categories.insert(event.category);
        if (std::string(event.name).rfind("i=", 0) == 0)
            ++pointSpans;
    }
    tracer.clear();
    EXPECT_TRUE(categories.count("runner worker 0"));
    EXPECT_TRUE(categories.count("runner worker 1"));
    // One span per point, named by the point's label.
    EXPECT_EQ(pointSpans, 4u);
}

TEST(RunnerTelemetry, TracedRunKeepsTheWallClockApartFromCycles)
{
    // A serial run leaves the tracer live, so the engine's events
    // (CPU cycles) and the runner's spans (wall-clock microseconds)
    // land in one trace.  Each clock is its own Chrome process.
    obs::EventTracer &tracer = obs::globalTracer();
    tracer.clear();
    tracer.setEnabled(true);
    Runner runner(RunnerOptions{1});
    runner.run(fourPointScenario("traced-engine"), {"fills"},
               [](const Point &point) -> Expected<std::vector<Cell>> {
                   CacheConfig cache;
                   cache.sizeBytes = 256;
                   cache.lineBytes = 32;
                   MemoryConfig memory;
                   memory.busWidthBytes = 4;
                   memory.cycleTime = 8;
                   TimingEngine engine(cache, memory,
                                       WriteBufferConfig{0, true},
                                       CpuConfig{});
                   Trace trace;
                   trace.append(MemoryReference{
                       0x100 * point.index, 0, 4, RefKind::Load});
                   return std::vector<Cell>{Cell::num(static_cast<double>(
                       engine.run(trace, 1).fills))};
               });
    tracer.setEnabled(false);
    const auto parsed = obs::parseJson(tracer.toChromeJson());
    tracer.clear();
    ASSERT_TRUE(parsed.ok) << parsed.error;

    std::set<double> runnerPids;
    std::set<double> enginePids;
    for (const obs::JsonValue &event :
         parsed.value.at("traceEvents").items()) {
        if (event.at("ph").asString() == "M")
            continue;
        const std::string category = event.at("cat").asString();
        (category.rfind("runner worker", 0) == 0 ? runnerPids
                                                  : enginePids)
            .insert(event.at("pid").asNumber());
    }
    EXPECT_EQ(runnerPids, std::set<double>{1});
    EXPECT_EQ(enginePids, std::set<double>{0});
    const obs::JsonValue &clocks =
        parsed.value.at("otherData").at("clocks");
    EXPECT_EQ(clocks.at("0").asString(),
              "CPU cycles rendered as microseconds");
    EXPECT_EQ(clocks.at("1").asString(), "wall-clock microseconds");
}

TEST(RunDiagnosis, ComputesUtilizationImbalanceAndTopK)
{
    RunnerTelemetry t;
    t.threadsUsed = 2;
    t.pointCount = 3;
    t.wallNs = 1000;
    t.workers = {
        WorkerTelemetry{0, 2, 900, 0, 100, 1000, {}},
        WorkerTelemetry{1, 1, 300, 0, 700, 1000, {}},
    };
    t.points = {
        PointTiming{0, 0, 0, 500, "a"},
        PointTiming{1, 0, 500, 400, "b"},
        PointTiming{2, 1, 0, 300, "c"},
    };

    const RunDiagnosis d = diagnoseRun(t, 2);
    ASSERT_EQ(d.workerUtilization.size(), 2u);
    EXPECT_DOUBLE_EQ(d.workerUtilization[0], 0.9);
    EXPECT_DOUBLE_EQ(d.workerUtilization[1], 0.3);
    // max/mean = 900 / 600
    EXPECT_DOUBLE_EQ(d.loadImbalance, 1.5);
    // (900 + 300) / (1000 * 2)
    EXPECT_DOUBLE_EQ(d.parallelEfficiency, 0.6);
    ASSERT_EQ(d.slowestPoints.size(), 2u);
    EXPECT_EQ(d.slowestPoints[0].index, 0u);
    EXPECT_EQ(d.slowestPoints[1].index, 1u);

    const std::string text = formatDiagnosis(d);
    EXPECT_NE(text.find("load imbalance 1.50x"),
              std::string::npos);
    EXPECT_NE(text.find("worker  0"), std::string::npos);
}

TEST(AmdahlFit, RecoversKnownSerialFraction)
{
    // T(n) = 1000 * (0.3 + 0.7 / n), exactly Amdahl with s = 0.3.
    std::vector<std::pair<unsigned, double>> samples;
    for (unsigned n : {1u, 2u, 4u, 8u})
        samples.emplace_back(
            n, 1000.0 * (0.3 + 0.7 / static_cast<double>(n)));
    const AmdahlFit fit = fitAmdahl(samples);
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.serialFraction, 0.3, 1e-9);
    EXPECT_NEAR(fit.t1Ns, 1000.0, 1e-6);
    EXPECT_NEAR(fit.speedupAt(8.0),
                1.0 / (0.3 + 0.7 / 8.0), 1e-9);
}

TEST(AmdahlFit, NeedsTwoDistinctThreadCounts)
{
    EXPECT_FALSE(fitAmdahl({}).ok);
    EXPECT_FALSE(fitAmdahl({{4, 100.0}}).ok);
    // Thread count 0 (inline) aliases to 1 — still one count.
    EXPECT_FALSE(fitAmdahl({{0, 100.0}, {1, 110.0}}).ok);
    EXPECT_TRUE(fitAmdahl({{1, 100.0}, {2, 60.0}}).ok);
}

TEST(AmdahlFit, AveragesDuplicateThreadCounts)
{
    // Two noisy samples at each n, symmetric around the ideal
    // curve with s = 0.5: averaging must recover the exact fit.
    std::vector<std::pair<unsigned, double>> samples;
    for (unsigned n : {1u, 2u, 4u}) {
        const double ideal =
            100.0 * (0.5 + 0.5 / static_cast<double>(n));
        samples.emplace_back(n, ideal + 5.0);
        samples.emplace_back(n, ideal - 5.0);
    }
    const AmdahlFit fit = fitAmdahl(samples);
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.serialFraction, 0.5, 1e-9);
}

TEST(AmdahlFit, ClampsSerialFractionToUnitInterval)
{
    // Anti-scaling (more threads, slower): the raw regression
    // would report s > 1; the fit clamps it.
    const AmdahlFit fit =
        fitAmdahl({{1, 100.0}, {2, 150.0}, {4, 200.0}});
    ASSERT_TRUE(fit.ok);
    EXPECT_GE(fit.serialFraction, 0.0);
    EXPECT_LE(fit.serialFraction, 1.0);
}
