/**
 * @file
 * Continuous-benchmark regression gate.
 *
 * Loads two BENCH_*.json records written by the obs::BenchSuite
 * harness, aligns their benchmarks by name, and flags median
 * ns/op changes beyond a MAD-scaled noise threshold:
 *
 *   perf_diff [options] <before.json> <after.json>
 *
 *     --report-only    always exit 0 (CI log table, no gate),
 *                      including when the records cannot be
 *                      compared: the refusal is printed instead
 *     --sigmas=<s>     noise threshold in robust sigmas (default 4)
 *     --min-rel=<f>    relative change floor (default 0.10 = 10%)
 *     --no-drift-norm  gate on raw times instead of dividing the
 *                      suite's median after/before ratio out first
 *     --ignore-threads compare even when the recorded host core
 *                      counts or per-benchmark thread configs
 *                      differ (normally a refusal: the numbers
 *                      measure different parallel setups)
 *     --require-speedup=<slow>:<fast>:<min>
 *                      assert median(slow) / median(fast) >= min
 *                      within the AFTER record (repeatable).  With
 *                      this flag a single json argument is also
 *                      accepted: only the speedup gates run.
 *                      Gates intra-record invariants like "the
 *                      single-pass sweep engine beats brute force
 *                      by 3x" that a before/after diff cannot see.
 *     --counter=<name> additionally gate on a per-op hardware
 *                      counter ("instructions", "cycles",
 *                      "cache_misses", ...) recorded by the bench
 *                      harness.  Counters barely move under host
 *                      load, so this catches real code changes
 *                      wall time would drown in noise.  Records
 *                      without the counter (perf unavailable,
 *                      older schema) are skipped, never gated.
 *     --counter-rel=<f>
 *                      relative threshold for --counter verdicts
 *                      (default 0.05 = 5%)
 *
 * Records from different builds (build_type or compiler differ)
 * are never compared; records from different parallel setups are
 * compared only with --ignore-threads.
 *
 * Exit status: 0 = no regressions, 1 = at least one benchmark
 * regressed or a required speedup not met, 2 = bad usage,
 * unreadable/unparsable input, or incomparable records (different
 * builds or thread configurations) in a gating mode.  The exact
 * CI invocation is documented in docs/OBSERVABILITY.md.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/bench.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--report-only] [--sigmas=<s>] "
        "[--min-rel=<f>] [--no-drift-norm] [--ignore-threads] "
        "[--require-speedup=<slow>:<fast>:<min>] "
        "[--counter=<name>] [--counter-rel=<f>] "
        "[<before.json>] <after.json>\n",
        argv0);
    return 2;
}

/** One --require-speedup assertion: slow vs fast benchmark. */
struct SpeedupGate
{
    std::string slow;
    std::string fast;
    double min = 0.0;
};

/** Median ns/rep of the named benchmark, or -1 when absent. */
double
benchMedian(const uatm::obs::JsonValue &doc,
            const std::string &name)
{
    const auto *benchmarks = doc.find("benchmarks");
    if (!benchmarks)
        return -1.0;
    for (const auto &bench : benchmarks->items()) {
        if (bench.stringOr("name", "") != name)
            continue;
        const auto *ns = bench.find("ns_per_rep");
        return ns ? ns->numberOr("median", -1.0) : -1.0;
    }
    return -1.0;
}

/** Benchmark names never contain ':', so the spec splits cleanly
 *  into slow:fast:min.  Returns false on malformed input. */
bool
parseSpeedupGate(const std::string &spec, SpeedupGate &gate)
{
    const std::size_t first = spec.find(':');
    const std::size_t last = spec.rfind(':');
    if (first == std::string::npos || first == last)
        return false;
    gate.slow = spec.substr(0, first);
    gate.fast = spec.substr(first + 1, last - first - 1);
    gate.min = std::atof(spec.c_str() + last + 1);
    return !gate.slow.empty() && !gate.fast.empty() &&
           gate.min > 0.0;
}

/** Evaluate every gate against @p doc; true when all hold. */
bool
checkSpeedupGates(const uatm::obs::JsonValue &doc,
                  const std::vector<SpeedupGate> &gates)
{
    bool ok = true;
    for (const SpeedupGate &gate : gates) {
        const double slow = benchMedian(doc, gate.slow);
        const double fast = benchMedian(doc, gate.fast);
        if (slow <= 0.0 || fast <= 0.0) {
            std::fprintf(stderr,
                         "perf_diff: speedup gate '%s' vs '%s': "
                         "benchmark missing from the record\n",
                         gate.slow.c_str(), gate.fast.c_str());
            ok = false;
            continue;
        }
        const double ratio = slow / fast;
        std::printf("speedup gate: %s / %s = %.2fx "
                    "(required >= %.2fx): %s\n",
                    gate.slow.c_str(), gate.fast.c_str(), ratio,
                    gate.min, ratio >= gate.min ? "ok" : "FAIL");
        ok = ok && ratio >= gate.min;
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace uatm;

    obs::PerfDiffOptions options;
    obs::CounterDiffOptions counter_options;
    bool report_only = false;
    bool ignore_threads = false;
    bool counter_armed = false;
    obs::PerfEvent counter_event = obs::PerfEvent::Instructions;
    std::vector<SpeedupGate> gates;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--report-only") {
            report_only = true;
        } else if (arg == "--ignore-threads") {
            ignore_threads = true;
        } else if (arg.rfind("--require-speedup=", 0) == 0) {
            SpeedupGate gate;
            if (!parseSpeedupGate(arg.substr(18), gate)) {
                std::fprintf(stderr,
                             "perf_diff: invalid "
                             "--require-speedup spec '%s'\n",
                             arg.c_str() + 18);
                return 2;
            }
            gates.push_back(std::move(gate));
        } else if (arg.rfind("--counter=", 0) == 0) {
            if (!obs::perfEventFromName(arg.substr(10),
                                        counter_event)) {
                std::fprintf(stderr,
                             "perf_diff: unknown counter '%s'\n",
                             arg.c_str() + 10);
                return 2;
            }
            counter_armed = true;
        } else if (arg.rfind("--counter-rel=", 0) == 0) {
            counter_options.minRelative =
                std::atof(arg.c_str() + 14);
            if (counter_options.minRelative <= 0.0) {
                std::fprintf(stderr,
                             "perf_diff: invalid --counter-rel "
                             "value '%s'\n",
                             arg.c_str() + 14);
                return 2;
            }
        } else if (arg == "--no-drift-norm") {
            options.normalizeDrift = false;
        } else if (arg.rfind("--sigmas=", 0) == 0) {
            options.sigmas = std::atof(arg.c_str() + 9);
            if (options.sigmas <= 0.0) {
                std::fprintf(stderr,
                             "perf_diff: invalid --sigmas value "
                             "'%s'\n",
                             arg.c_str() + 9);
                return 2;
            }
        } else if (arg.rfind("--min-rel=", 0) == 0) {
            options.minRelative = std::atof(arg.c_str() + 10);
            if (options.minRelative < 0.0) {
                std::fprintf(stderr,
                             "perf_diff: invalid --min-rel value "
                             "'%s'\n",
                             arg.c_str() + 10);
                return 2;
            }
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() == 1 && !gates.empty()) {
        // Gate-only mode: intra-record speedup assertions.
        obs::JsonValue doc;
        std::string error;
        if (!obs::loadBenchFile(files[0], doc, error)) {
            std::fprintf(stderr, "perf_diff: %s\n",
                         error.c_str());
            return 2;
        }
        const bool ok = checkSpeedupGates(doc, gates);
        return (!ok && !report_only) ? 1 : 0;
    }
    if (files.size() != 2)
        return usage(argv[0]);

    obs::JsonValue before, after;
    std::string error;
    if (!obs::loadBenchFile(files[0], before, error) ||
        !obs::loadBenchFile(files[1], after, error)) {
        std::fprintf(stderr, "perf_diff: %s\n", error.c_str());
        return 2;
    }

    // A refusal fails a gating run (exit 2) but is only a report
    // under --report-only.
    const auto refuse = [&](const char *hint) {
        std::fprintf(stderr,
                     "perf_diff: refusing to compare: %s\n  (%s)\n%s",
                     error.c_str(), hint,
                     report_only ? "  (report-only mode, not "
                                   "failing)\n"
                                 : "");
        return report_only ? 0 : 2;
    };
    if (!obs::perfSameBuild(before, after, error)) {
        return refuse("the two records time different builds; "
                      "rebuild both the same way");
    }
    if (!obs::perfComparable(before, after, error)) {
        if (!ignore_threads) {
            return refuse("the two records measure different "
                          "parallel setups; rerun on matching "
                          "configs or pass --ignore-threads");
        }
        std::printf("perf_diff: warning: %s "
                    "(--ignore-threads, comparing anyway)\n",
                    error.c_str());
    }

    const std::vector<obs::PerfDelta> deltas =
        obs::comparePerf(before, after, options);

    std::printf("perf_diff: %s (%s)  vs  %s (%s)\n",
                files[0].c_str(),
                before.stringOr("git_describe", "?").c_str(),
                files[1].c_str(),
                after.stringOr("git_describe", "?").c_str());
    std::printf("noise threshold: %.1f robust sigmas "
                "(1.4826*MAD), floor %.1f%%\n",
                options.sigmas, options.minRelative * 100.0);
    double drift = 1.0;
    for (const auto &delta : deltas) {
        if (delta.verdict != obs::PerfDelta::Verdict::Added &&
            delta.verdict != obs::PerfDelta::Verdict::Removed) {
            drift = delta.appliedDrift;
            break;
        }
    }
    if (drift != 1.0) {
        std::printf("suite drift: %+.1f%% (median shift; divided "
                    "out of the verdicts — raw %% shown below)\n",
                    (drift - 1.0) * 100.0);
    }
    std::printf("\n");
    std::fputs(obs::formatPerfTable(deltas).c_str(), stdout);

    std::size_t counter_regressions = 0;
    if (counter_armed) {
        const std::vector<obs::CounterDelta> counter_deltas =
            obs::compareCounter(before, after, counter_event,
                                counter_options);
        std::printf("\n");
        if (counter_deltas.empty()) {
            std::printf("counter gate (%s): no matched "
                        "benchmarks, skipped\n",
                        obs::perfEventName(counter_event));
        } else {
            std::fputs(obs::formatCounterTable(counter_deltas,
                                               counter_event)
                           .c_str(),
                       stdout);
            std::size_t skipped = 0;
            for (const auto &delta : counter_deltas) {
                skipped += delta.verdict ==
                           obs::CounterDelta::Verdict::Skipped;
            }
            if (skipped > 0) {
                std::printf("counter gate (%s): %zu benchmark%s "
                            "without the counter skipped\n",
                            obs::perfEventName(counter_event),
                            skipped, skipped == 1 ? "" : "s");
            }
            counter_regressions =
                obs::countCounterRegressions(counter_deltas);
        }
    }

    bool gates_ok = true;
    if (!gates.empty()) {
        std::printf("\n");
        gates_ok = checkSpeedupGates(after, gates);
    }

    const std::size_t regressions =
        obs::countRegressions(deltas) + counter_regressions;
    if (regressions > 0) {
        std::printf("\n%zu benchmark%s regressed%s\n", regressions,
                    regressions == 1 ? "" : "s",
                    report_only ? " (report-only mode, not "
                                  "failing)"
                                : "");
    } else {
        std::printf("\nno regressions\n");
    }
    return ((regressions > 0 || !gates_ok) && !report_only) ? 1
                                                            : 0;
}
