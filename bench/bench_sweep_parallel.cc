/**
 * @file
 * Scaling benchmark for the exp::Runner worker pool: the same
 * cache-geometry sweep scenario at 1, 2, 4 and 8 threads, on the
 * obs::BenchSuite harness.  Writes BENCH_sweep_parallel.json for
 * tools/perf_diff, and reports the wall-clock speedup of each
 * thread count over the serial run.  Before timing anything, it
 * asserts the merged CSV is byte-identical at every thread count —
 * both disarmed and with telemetry armed — the runner's core
 * determinism contract.
 *
 * After the timed reps, one telemetry-armed run per thread count
 * writes RUNNER_sweep_parallel_t<n>.json next to the BENCH json
 * and the scaling diagnosis (per-worker utilization, load
 * imbalance, Amdahl serial-fraction fit) prints inline; feed the
 * same files to tools/run_report for the standalone report.  With
 * UATM_TRACE set, the runner additionally emits one Chrome-trace
 * track per worker.
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
sweepCsv(unsigned threads, bool telemetry = false,
         exp::GeometrySweep::Engine engine =
             exp::GeometrySweep::Engine::Auto)
{
    exp::RunnerOptions options;
    options.threads = threads;
    options.telemetry = telemetry;
    exp::Runner runner(options);
    exp::GeometrySweep spec = benchSweep();
    spec.engine = engine;
    return exp::runGeometrySweep(spec, runner).renderCsv();
}

/**
 * One telemetry-armed run per thread count: write the
 * RUNNER_*.json artifacts, print each diagnosis, and return the
 * (threads, wall ns) samples for the Amdahl fit.
 */
std::vector<std::pair<unsigned, double>>
runTelemetrySweeps(const unsigned (&threadCounts)[4])
{
    const std::filesystem::path dir = obs::benchOutDir();
    std::vector<std::pair<unsigned, double>> samples;
    for (unsigned threads : threadCounts) {
        exp::RunnerOptions options;
        options.threads = threads;
        options.telemetry = true;
        exp::Runner runner(options);
        const auto table =
            exp::runGeometrySweep(benchSweep(), runner);
        obs::doNotOptimize(table.rows());
        const exp::RunnerTelemetry &telemetry =
            runner.lastTelemetry();

        const std::filesystem::path path =
            (dir / ("RUNNER_sweep_parallel_t" +
                    std::to_string(threads) + ".json"))
                .lexically_normal();
        okOrFatal(telemetry.writeJson(path.string()));
        std::printf("[runner-json] wrote %s\n",
                    path.string().c_str());

        std::fputs(
            exp::formatDiagnosis(exp::diagnoseRun(telemetry, 3))
                .c_str(),
            stdout);
        if (telemetry.wallNs > 0)
            samples.emplace_back(
                telemetry.threadsUsed,
                static_cast<double>(telemetry.wallNs));
    }
    return samples;
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
        // meaningless.  Telemetry-armed runs are held to the
        // same contract — instrumentation must not perturb the
        // merge.
        const std::string serial = sweepCsv(1);
        for (unsigned threads : threadCounts) {
            if (sweepCsv(threads) != serial) {
                std::fprintf(stderr,
                             "FAIL: sweep output at %u threads "
                             "differs from the serial run\n",
                             threads);
                return EXIT_FAILURE;
            }
            if (sweepCsv(threads, true) != serial) {
                std::fprintf(stderr,
                             "FAIL: telemetry-armed sweep output "
                             "at %u threads differs from the "
                             "serial run\n",
                             threads);
                return EXIT_FAILURE;
            }
            // Cross-engine gate: the single-pass stack engine
            // must merge byte-identically to brute-force
            // per-point simulation at every thread count.
            if (sweepCsv(threads, false,
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
                    "threads (disarmed, telemetry-armed and "
                    "brute-force); timing the pool...\n");
    }

    obs::BenchSuite suite("sweep_parallel");
    for (unsigned threads : threadCounts) {
        const std::string name =
            "sweep/geometry/t" + std::to_string(threads);
        suite.add(name, [threads](obs::BenchState &state) {
            const exp::GeometrySweep spec = benchSweep();
            state.setItems(spec.values.size() * spec.refs);
            exp::Runner runner(exp::RunnerOptions{threads});
            const auto table =
                exp::runGeometrySweep(spec, runner);
            obs::doNotOptimize(table.rows());
            state.setThreads(threads,
                             runner.lastStats().threadsUsed);
        });
    }
    // Brute-force reference: one simulation per grid point, same
    // scenario, one thread.  Recorded in the same JSON so
    // tools/perf_diff can gate the single-pass speedup
    // (--require-speedup) against it.
    suite.add("sweep/geometry/brute/t1",
              [](obs::BenchState &state) {
                  exp::GeometrySweep spec = benchSweep();
                  spec.engine =
                      exp::GeometrySweep::Engine::PerPoint;
                  state.setItems(spec.values.size() * spec.refs);
                  exp::Runner runner(exp::RunnerOptions{1});
                  const auto table =
                      exp::runGeometrySweep(spec, runner);
                  obs::doNotOptimize(table.rows());
                  state.setThreads(1,
                                   runner.lastStats().threadsUsed);
              });

    obs::BenchSuite::RunOptions options;
    options.filter = args.filter;
    options.listOnly = args.listOnly;
    options.reps = args.reps;

    suite.run(options);

    if (!args.listOnly && args.filter.empty() &&
        suite.results().size() == 5) {
        const double serial =
            suite.results().front().nsPerRepMedian;
        double brute = 0;
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
        }
        if (brute > 0) {
            std::printf("\nsingle-pass stack engine vs "
                        "brute-force per-point at 1 thread: "
                        "%.2fx\n",
                        brute / serial);
        }

        std::printf("\nscaling diagnosis (one telemetry-armed "
                    "run per thread count):\n");
        const auto samples = runTelemetrySweeps(threadCounts);
        std::fputs(
            exp::formatAmdahlFit(exp::fitAmdahl(samples), samples)
                .c_str(),
            stdout);
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return uatm::bench::guardedMain(
        [&] { return run(argc, argv); });
}
