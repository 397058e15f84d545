/**
 * @file
 * Scaling-diagnosis report over runner telemetry.
 *
 * Consumes RUNNER_*.json documents, each one exp::Runner run's
 * record (RunnerTelemetry::writeJson; bench_sweep_parallel writes
 * one per thread count), and prints, per run, the per-worker
 * utilization bars, the load-imbalance index, parallel efficiency,
 * the per-worker hardware counter lanes (schema v2), and the top-K
 * slowest points; given runs at two or more distinct thread counts
 * it also fits Amdahl's law, reports the serial fraction and the
 * asymptotic speedup limit, and analyses the counter trend (IPC /
 * misses-per-instruction vs thread count — the false-sharing and
 * scheduler-pressure heuristics of exp/report.hh):
 *
 *   run_report [options] <telemetry.json>...
 *
 *     --top=<k>        slowest points to list per run (default 5)
 *     --bench=<path>   fit Amdahl's law on a
 *                      BENCH_sweep_parallel.json instead of the
 *                      records' runner wall times: each
 *                      sweep/geometry/t<n> benchmark contributes
 *                      (n, median ns/rep)
 *     --format=<f>     "text" (default) or "json": emit the same
 *                      diagnosis machine-readably on stdout
 *
 * Exit status: 0 = report printed, 2 = bad usage or no readable
 * input.  A file that is not JSON or breaks its schema (a negative
 * count, a fraction, a number too large for its field) is not
 * readable: its ParseError, naming the file and the JSON path, is
 * printed and the file skipped.  CI runs this over the perf-smoke artifacts;
 * see docs/OBSERVABILITY.md.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "exp/report.hh"
#include "exp/telemetry.hh"
#include "obs/bench.hh"
#include "obs/json.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--top=<k>] [--bench=<path>] "
                 "[--format=text|json] <telemetry.json>...\n",
                 argv0);
    return 2;
}

/**
 * Thread count of a "sweep/geometry/t<n>" benchmark (8 for
 * ".../t8"); 0 for any other name, the brute-force reference
 * "sweep/geometry/brute/t1" included.
 */
unsigned
threadsFromBenchName(const std::string &name)
{
    const std::string prefix = "sweep/geometry/t";
    if (name.rfind(prefix, 0) != 0)
        return 0;
    const std::string digits = name.substr(prefix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") !=
            std::string::npos)
        return 0;
    return static_cast<unsigned>(std::atoi(digits.c_str()));
}

/** One successfully loaded telemetry input. */
struct LoadedRun
{
    std::string file;
    uatm::exp::RunnerTelemetry telemetry;
};

/** The full diagnosis as one JSON document (--format=json). */
std::string
reportJson(const std::vector<LoadedRun> &runs, std::size_t topK,
           const uatm::exp::CounterScaling &scaling,
           const uatm::exp::AmdahlFit &fit,
           const std::vector<std::pair<unsigned, double>>
               &samples)
{
    using namespace uatm;
    obs::JsonWriter w;
    w.beginObject()
        .keyValue("schema_version", 1)
        .keyValue("kind", "run_report");

    w.key("runs").beginArray();
    for (const LoadedRun &run : runs) {
        const exp::RunDiagnosis d =
            exp::diagnoseRun(run.telemetry, topK);
        w.beginObject()
            .keyValue("file", run.file)
            .keyValue("scenario", run.telemetry.scenario)
            .keyValue("threads_used", d.threadsUsed)
            .keyValue("points", d.pointCount)
            .keyValue("wall_ns", d.wallNs)
            .keyValue("load_imbalance", d.loadImbalance)
            .keyValue("parallel_efficiency",
                      d.parallelEfficiency)
            .keyValue("counters_available",
                      d.countersAvailable);
        w.key("workers").beginArray();
        for (std::size_t i = 0; i < d.workerUtilization.size();
             ++i) {
            w.beginObject()
                .keyValue("worker", i)
                .keyValue("utilization",
                          d.workerUtilization[i]);
            if (i < d.workerCounters.size()) {
                const obs::PerfCounterValues &c =
                    d.workerCounters[i];
                if (c.available) {
                    if (c.has(obs::PerfEvent::Instructions) &&
                        c.has(obs::PerfEvent::Cycles))
                        w.keyValue("ipc", c.ipc());
                    if (c.has(obs::PerfEvent::CacheMisses) &&
                        c.has(obs::PerfEvent::CacheReferences))
                        w.keyValue("cache_miss_rate",
                                   c.cacheMissRate());
                    if (c.has(obs::PerfEvent::CacheMisses) &&
                        c.has(obs::PerfEvent::Instructions))
                        w.keyValue(
                            "mpki",
                            c.missesPerKiloInstruction());
                }
                w.key("counters");
                c.writeJson(w);
            }
            w.endObject();
        }
        w.endArray();
        w.key("slowest_points").beginArray();
        for (const exp::PointTiming &p : d.slowestPoints) {
            w.beginObject()
                .keyValue("index", p.index)
                .keyValue("worker", p.worker)
                .keyValue("ns", p.durationNs)
                .keyValue("label", p.label)
                .endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.key("counter_scaling").beginObject();
    w.keyValue("ok", scaling.ok)
        .keyValue("false_sharing_suspected",
                  scaling.falseSharingSuspected)
        .keyValue("migration_heavy", scaling.migrationHeavy)
        .keyValue("context_switch_heavy",
                  scaling.contextSwitchHeavy)
        .keyValue("verdict", scaling.verdict);
    w.key("points").beginArray();
    for (const exp::CounterScalingPoint &p : scaling.points) {
        w.beginObject().keyValue("threads", p.threads);
        if (p.hasIpc)
            w.keyValue("ipc", p.ipc);
        if (p.hasMpki)
            w.keyValue("mpki", p.mpki);
        if (p.hasMigrations)
            w.keyValue("migrations_per_worker",
                       p.migrationsPerWorker);
        if (p.hasCtxSwitches)
            w.keyValue("ctx_switches_per_second",
                       p.ctxSwitchesPerSecond);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("amdahl").beginObject().keyValue("ok", fit.ok);
    if (fit.ok) {
        w.keyValue("serial_fraction", fit.serialFraction)
            .keyValue("t1_ns", fit.t1Ns);
    }
    w.key("samples").beginArray();
    for (const auto &[threads, wallNs] : samples) {
        w.beginObject()
            .keyValue("threads", threads == 0 ? 1u : threads)
            .keyValue("wall_ns", wallNs)
            .endObject();
    }
    w.endArray();
    w.endObject();

    w.endObject();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace uatm;

    std::size_t topK = 5;
    std::string benchPath;
    bool jsonFormat = false;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--top=", 0) == 0) {
            const long parsed = std::atol(arg.c_str() + 6);
            if (parsed < 0) {
                std::fprintf(stderr,
                             "run_report: invalid --top value "
                             "'%s'\n",
                             arg.c_str() + 6);
                return 2;
            }
            topK = static_cast<std::size_t>(parsed);
        } else if (arg.rfind("--bench=", 0) == 0) {
            benchPath = arg.substr(8);
        } else if (arg.rfind("--format=", 0) == 0) {
            const std::string format = arg.substr(9);
            if (format == "json") {
                jsonFormat = true;
            } else if (format != "text") {
                std::fprintf(stderr,
                             "run_report: invalid --format "
                             "value '%s' (text|json)\n",
                             format.c_str());
                return 2;
            }
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty() && benchPath.empty())
        return usage(argv[0]);

    // (threads, wall ns) samples feeding the Amdahl fit: the
    // records' runner wall times, or the sweep benchmark's median
    // reps when --bench is given.  A runner wall time leaves out
    // the work a sweep does before Runner::run, so the two are
    // never mixed in one fit.
    std::vector<std::pair<unsigned, double>> samples;
    std::vector<std::pair<unsigned, double>> benchSamples;
    std::vector<LoadedRun> runs;
    std::size_t loaded = 0;

    for (const std::string &file : files) {
        Expected<exp::RunnerTelemetry> telemetry =
            exp::RunnerTelemetry::load(file);
        if (!telemetry.ok()) {
            std::fprintf(stderr, "run_report: %s\n",
                         telemetry.status().message().c_str());
            continue;
        }
        ++loaded;
        const exp::RunnerTelemetry &t = telemetry.value();
        if (t.wallNs > 0)
            samples.emplace_back(t.threadsUsed,
                                 static_cast<double>(t.wallNs));
        runs.push_back(
            LoadedRun{file, std::move(telemetry).value()});
    }

    std::size_t folded = 0;
    if (!benchPath.empty()) {
        const Expected<obs::BenchRecord> record =
            obs::loadBenchFile(benchPath);
        if (!record.ok()) {
            std::fprintf(stderr, "run_report: %s\n",
                         record.status().message().c_str());
            if (!loaded)
                return 2;
            benchPath.clear();
        } else {
            ++loaded;
            for (const obs::BenchResult &result :
                 record.value().benchmarks) {
                const unsigned threads =
                    threadsFromBenchName(result.name);
                if (threads == 0 || result.nsPerRepMedian <= 0.0)
                    continue;
                benchSamples.emplace_back(threads,
                                          result.nsPerRepMedian);
                ++folded;
            }
        }
    }

    if (loaded == 0) {
        std::fprintf(stderr,
                     "run_report: no readable input files\n");
        return 2;
    }
    if (folded)
        samples = std::move(benchSamples);

    std::vector<exp::RunnerTelemetry> telemetries;
    telemetries.reserve(runs.size());
    for (const LoadedRun &run : runs)
        telemetries.push_back(run.telemetry);
    const exp::CounterScaling scaling =
        exp::analyzeCounterScaling(telemetries);
    const exp::AmdahlFit fit = exp::fitAmdahl(samples);

    if (jsonFormat) {
        std::fputs(
            reportJson(runs, topK, scaling, fit, samples)
                .c_str(),
            stdout);
        std::fputs("\n", stdout);
        return 0;
    }

    for (const LoadedRun &run : runs) {
        const exp::RunnerTelemetry &t = run.telemetry;
        std::printf("== %s%s%s ==\n", run.file.c_str(),
                    t.scenario.empty() ? "" : ": ",
                    t.scenario.c_str());
        const exp::RunDiagnosis diagnosis =
            exp::diagnoseRun(t, topK);
        std::fputs(exp::formatDiagnosis(diagnosis).c_str(),
                   stdout);
        std::printf("\n");
    }

    if (!benchPath.empty()) {
        std::printf("== %s ==\n%zu sweep benchmark%s folded into "
                    "the fit, which then covers whole timed reps "
                    "and leaves out the records' runner wall "
                    "times\n\n",
                    benchPath.c_str(), folded,
                    folded == 1 ? "" : "s");
    }

    if (!runs.empty())
        std::fputs(exp::formatCounterScaling(scaling).c_str(),
                   stdout);
    std::fputs(exp::formatAmdahlFit(fit, samples).c_str(),
               stdout);
    return 0;
}
