/**
 * @file
 * Scaling benchmark for the exp::Runner worker pool: the same
 * cache-geometry sweep scenario at 1, 2, 4 and 8 threads, on the
 * obs::BenchSuite harness.  Writes BENCH_sweep_parallel.json for
 * tools/perf_diff, and reports the wall-clock speedup of each
 * thread count over the serial run.  Before timing anything, it
 * asserts the merged CSV is byte-identical at every thread count,
 * and to brute-force per-point simulation — the runner's core
 * determinism contract.
 *
 * Each timed rep prices the sweep kSweepsPerRep times, so a rep
 * lasts tens of milliseconds and the spread of the reps within
 * one run stays small.
 *
 * After the timed reps it fits Amdahl's law to the median rep of
 * each thread count, which times whole runGeometrySweep calls:
 * trace generation and the stack-sim pass as well as the
 * runner's per-point lookups.  One more run per thread count
 * writes its record to RUNNER_sweep_parallel_t<n>.json next to
 * the BENCH json and prints the per-worker diagnosis (utilization,
 * load imbalance, slowest points); feed the same files to
 * tools/run_report for the standalone report.  With UATM_TRACE
 * set, the runner additionally emits one Chrome-trace track per
 * worker.
 *
 *   bench_sweep_parallel [--filter=<substr>] [--list] [--reps=<n>]
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hh"
#include "exp/report.hh"
#include "exp/scenarios.hh"
#include "obs/bench.hh"

namespace uatm {
namespace {

constexpr std::uint64_t kRefs = 20000;

/** Sweeps priced per timed rep (one sweep is ~2 ms at t1). */
constexpr unsigned kSweepsPerRep = 8;

exp::GeometrySweep
benchSweep()
{
    exp::GeometrySweep spec;
    spec.axis = exp::GeometrySweep::Axis::Size;
    spec.base.assoc = 2;
    spec.base.lineBytes = 32;
    spec.workload = exp::WorkloadSpec::spec92("nasa7", 9);
    spec.values = {4096,  8192,   16384,  32768,
                   65536, 131072, 262144, 524288};
    spec.refs = kRefs;
    spec.warmupRefs = kRefs / 10;
    return spec;
}

std::string
sweepCsv(unsigned threads, exp::GeometrySweep::Engine engine =
                               exp::GeometrySweep::Engine::Auto)
{
    exp::Runner runner(exp::RunnerOptions{threads});
    exp::GeometrySweep spec = benchSweep();
    spec.engine = engine;
    return exp::runGeometrySweep(spec, runner).renderCsv();
}

/** One timed rep: kSweepsPerRep whole sweeps on @p threads. */
void
timeSweeps(obs::BenchState &state, unsigned threads,
           exp::GeometrySweep::Engine engine)
{
    exp::GeometrySweep spec = benchSweep();
    spec.engine = engine;
    state.setItems(kSweepsPerRep * spec.values.size() * spec.refs);
    exp::Runner runner(exp::RunnerOptions{threads});
    for (unsigned i = 0; i < kSweepsPerRep; ++i) {
        const auto table = exp::runGeometrySweep(spec, runner);
        obs::doNotOptimize(table.rows());
    }
    state.setThreads(threads, runner.lastStats().threadsUsed);
}

/**
 * One more run per thread count: write its RUNNER_*.json record
 * and print its per-worker diagnosis.
 */
void
writeRunRecords(const unsigned (&threadCounts)[4])
{
    const std::filesystem::path dir = obs::benchOutDir();
    for (unsigned threads : threadCounts) {
        exp::Runner runner(exp::RunnerOptions{threads});
        const auto table =
            exp::runGeometrySweep(benchSweep(), runner);
        obs::doNotOptimize(table.rows());
        const exp::RunnerTelemetry &record = runner.lastStats();

        const std::filesystem::path path =
            (dir / ("RUNNER_sweep_parallel_t" +
                    std::to_string(threads) + ".json"))
                .lexically_normal();
        okOrFatal(record.writeJson(path.string()));
        std::printf("[runner-json] wrote %s\n",
                    path.string().c_str());

        std::fputs(
            exp::formatDiagnosis(exp::diagnoseRun(record, 3))
                .c_str(),
            stdout);
    }
}

} // namespace
} // namespace uatm

static int
run(int argc, char **argv)
{
    using namespace uatm;

    const bench::BenchArgs args = bench::parseArgs(argc, argv);
    const unsigned threadCounts[] = {1, 2, 4, 8};

    if (!args.listOnly) {
        // Determinism gate first: a timing table for a runner
        // that merges differently per thread count would be
        // meaningless.
        const std::string serial = sweepCsv(1);
        for (unsigned threads : threadCounts) {
            if (sweepCsv(threads) != serial) {
                std::fprintf(stderr,
                             "FAIL: sweep output at %u threads "
                             "differs from the serial run\n",
                             threads);
                return EXIT_FAILURE;
            }
            // Cross-engine gate: the single-pass stack engine
            // must merge byte-identically to brute-force
            // per-point simulation at every thread count.
            if (sweepCsv(threads,
                         exp::GeometrySweep::Engine::PerPoint) !=
                serial) {
                std::fprintf(stderr,
                             "FAIL: per-point sweep output at %u "
                             "threads differs from the "
                             "single-pass engine\n",
                             threads);
                return EXIT_FAILURE;
            }
        }
        // The timing table below is only meaningful if the Auto
        // engine really took the fast path: refuse to benchmark a
        // silent fallback.
        resetSweepDispatchStats();
        sweepCsv(1);
        if (sweepDispatchCounters().fastPath == 0) {
            std::fprintf(stderr,
                         "FAIL: geometry sweep did not dispatch "
                         "to the single-pass stack engine "
                         "(declined=%llu per-point=%llu)\n",
                         static_cast<unsigned long long>(
                             sweepDispatchCounters().declined),
                         static_cast<unsigned long long>(
                             sweepDispatchCounters().perPoint));
            return EXIT_FAILURE;
        }
        resetSweepDispatchStats();
        std::printf("sweep output byte-identical at 1/2/4/8 "
                    "threads (single-pass and brute-force); "
                    "timing the pool...\n");
    }

    obs::BenchSuite suite("sweep_parallel");
    for (unsigned threads : threadCounts) {
        suite.add("sweep/geometry/t" + std::to_string(threads),
                  [threads](obs::BenchState &state) {
                      timeSweeps(state, threads,
                                 exp::GeometrySweep::Engine::Auto);
                  });
    }
    // Brute-force reference: one simulation per grid point, same
    // scenario, one thread.  Recorded in the same JSON so
    // tools/perf_diff can gate the single-pass speedup
    // (--require-speedup) against it.
    suite.add("sweep/geometry/brute/t1", [](obs::BenchState &state) {
        timeSweeps(state, 1, exp::GeometrySweep::Engine::PerPoint);
    });

    obs::BenchSuite::RunOptions options;
    options.filter = args.filter;
    options.listOnly = args.listOnly;
    options.reps = args.reps;

    valueOrFatal(suite.run(options));

    if (!args.listOnly && args.filter.empty() &&
        suite.results().size() == 5) {
        const double serial =
            suite.results().front().nsPerRepMedian;
        double brute = 0;
        // (threads, ns per sweep) at each thread count's median
        // rep: whole runGeometrySweep calls.
        std::vector<std::pair<unsigned, double>> samples;
        std::printf("\nspeedup over 1 thread (wall clock, "
                    "%u-core host):\n",
                    std::thread::hardware_concurrency());
        for (const auto &result : suite.results()) {
            if (result.name == "sweep/geometry/brute/t1") {
                brute = result.nsPerRepMedian;
                continue;
            }
            std::printf("  %-24s %6.2fx\n", result.name.c_str(),
                        serial / result.nsPerRepMedian);
            samples.emplace_back(result.threadsRequested,
                                 result.nsPerRepMedian /
                                     kSweepsPerRep);
        }
        if (brute > 0) {
            std::printf("\nsingle-pass stack engine vs "
                        "brute-force per-point at 1 thread: "
                        "%.2fx\n",
                        brute / serial);
        }

        std::printf("\nscaling diagnosis: Amdahl fit over whole "
                    "runGeometrySweep calls (trace generation, "
                    "stack-sim pass and point lookups; median "
                    "timed rep / %u):\n",
                    kSweepsPerRep);
        std::fputs(
            exp::formatAmdahlFit(exp::fitAmdahl(samples), samples)
                .c_str(),
            stdout);
        std::printf("\nper-worker diagnosis (one more run per "
                    "thread count):\n");
        writeRunRecords(threadCounts);
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return uatm::guardedMain(
        [&] { return run(argc, argv); });
}
