/**
 * @file
 * Serving-layer benchmark: the same sweep request against a cold
 * and a warm PointCache, on the obs::BenchSuite harness.  Writes
 * BENCH_served.json so CI can gate the cache with
 *
 *   perf_diff --require-speedup=served/sweep/cold:served/sweep/warm:10
 *
 * — a warm request must be at least an order of magnitude faster
 * than recomputation, or the cache is decorative.
 *
 * Before timing anything the harness asserts the serving
 * contracts: the warm table renders byte-identical to the cold
 * one (content-addressed hits must not change a single byte), a
 * fully warm run reports cache_hits == point count, and a warm
 * superset request recomputes only the new points.
 *
 *   bench_served [--filter=<substr>] [--list] [--reps=<n>]
 */

#include <cstdio>
#include <string>

#include "common.hh"
#include "obs/bench.hh"
#include "serve/service.hh"

namespace uatm {
namespace {

/** The benched request: one axis, eight geometries.  Kept small
 *  enough that a cold rep is quick and a warm rep is dominated by
 *  cache lookups — the ratio under test. */
constexpr const char *kScenario = R"({
  "name": "bench_served",
  "kernel": "cache",
  "refs": 20000,
  "warmup": 2000,
  "workload": {"method": "spec92",
               "params": {"profile": "nasa7"}, "seed": 9},
  "cache": {"assoc": 2, "line": 32},
  "axes": [{"axis": "cache.size",
            "values": [4096, 8192, 16384, 32768, 65536,
                       131072, 262144, 524288]}],
  "threads": 1
})";

/** kScenario plus one extra size: the superset request. */
constexpr const char *kScenarioSuperset = R"({
  "name": "bench_served",
  "kernel": "cache",
  "refs": 20000,
  "warmup": 2000,
  "workload": {"method": "spec92",
               "params": {"profile": "nasa7"}, "seed": 9},
  "cache": {"assoc": 2, "line": 32},
  "axes": [{"axis": "cache.size",
            "values": [4096, 8192, 16384, 32768, 65536,
                       131072, 262144, 524288, 1048576]}],
  "threads": 1
})";

serve::SweepRequest
parseOrDie(const char *text)
{
    return valueOrFatal(serve::parseSweepRequest(text));
}

serve::SweepOutcome
runOrDie(serve::SweepService &service,
         const serve::SweepRequest &request)
{
    return valueOrFatal(service.runSweep(request));
}

/** The byte-identity and accounting gates (see file comment). */
bool
verifyContracts(serve::SweepService &service)
{
    const serve::SweepRequest request = parseOrDie(kScenario);

    service.cache().clear();
    const serve::SweepOutcome cold = runOrDie(service, request);
    const serve::SweepOutcome warm = runOrDie(service, request);

    const std::string cold_rows = cold.table.renderNdjson();
    if (warm.table.renderNdjson() != cold_rows) {
        std::fprintf(stderr, "FAIL: warm-cache NDJSON differs "
                             "from the cold run\n");
        return false;
    }
    if (cold.computed != cold.points || cold.cacheHits != 0) {
        std::fprintf(stderr,
                     "FAIL: cold run computed %zu/%zu points "
                     "with %zu hits\n",
                     cold.computed, cold.points, cold.cacheHits);
        return false;
    }
    if (warm.cacheHits != warm.points || warm.computed != 0) {
        std::fprintf(stderr,
                     "FAIL: warm run hit %zu/%zu points "
                     "(computed %zu)\n",
                     warm.cacheHits, warm.points, warm.computed);
        return false;
    }

    const serve::SweepOutcome superset =
        runOrDie(service, parseOrDie(kScenarioSuperset));
    if (superset.computed != superset.points - warm.points ||
        superset.cacheHits != warm.points) {
        std::fprintf(stderr,
                     "FAIL: superset run computed %zu and hit "
                     "%zu of %zu points (want %zu computed, "
                     "%zu hits)\n",
                     superset.computed, superset.cacheHits,
                     superset.points,
                     superset.points - warm.points, warm.points);
        return false;
    }
    std::printf("serving contracts hold: warm NDJSON "
                "byte-identical, warm hits %zu/%zu, superset "
                "recomputed only %zu new point(s); timing...\n",
                warm.cacheHits, warm.points, superset.computed);
    return true;
}

} // namespace
} // namespace uatm

static int
run(int argc, char **argv)
{
    using namespace uatm;

    const bench::BenchArgs args = bench::parseArgs(argc, argv);

    serve::ServiceOptions service_options;
    service_options.threads = 1;
    serve::SweepService service(service_options);

    if (!args.listOnly && !verifyContracts(service))
        return EXIT_FAILURE;

    const serve::SweepRequest request =
        uatm::serve::parseSweepRequest(kScenario).value();
    const std::uint64_t items = 8 * 20000;

    obs::BenchSuite suite("served");
    suite.add("served/sweep/cold",
              [&](obs::BenchState &state) {
                  state.setItems(items);
                  service.cache().clear();
                  const auto outcome = service.runSweep(request);
                  obs::doNotOptimize(
                      outcome.value().table.rows());
                  state.setThreads(1, 0);
              });
    // The warmup reps leave the cache primed, so every timed rep
    // of the warm benchmark is all hits.
    suite.add("served/sweep/warm",
              [&](obs::BenchState &state) {
                  state.setItems(items);
                  const auto outcome = service.runSweep(request);
                  obs::doNotOptimize(
                      outcome.value().table.rows());
                  state.setThreads(1, 0);
              });

    obs::BenchSuite::RunOptions options;
    options.filter = args.filter;
    options.listOnly = args.listOnly;
    options.reps = args.reps;
    valueOrFatal(suite.run(options));

    if (!args.listOnly && args.filter.empty() &&
        suite.results().size() == 2) {
        const double cold = suite.results()[0].nsPerRepMedian;
        const double warm = suite.results()[1].nsPerRepMedian;
        if (warm > 0) {
            std::printf("\nwarm-cache speedup over cold: "
                        "%.1fx\n",
                        cold / warm);
        }
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return uatm::guardedMain(
        [&] { return run(argc, argv); });
}
