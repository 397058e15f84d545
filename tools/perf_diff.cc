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
 *     --sigmas <s>     noise threshold in robust sigmas (default 4)
 *     --min-rel <f>    relative change floor (default 0.10 = 10%)
 *     --no-drift-norm  gate on raw times instead of dividing the
 *                      suite's median after/before ratio out first
 *     --ignore-threads compare even when the recorded host core
 *                      counts or per-benchmark thread configs
 *                      differ (normally a refusal: the numbers
 *                      measure different parallel setups)
 *     --require-speedup <slow>:<fast>:<min>
 *                      assert median(slow) / median(fast) >= min
 *                      within the AFTER record (repeatable).  With
 *                      this flag a single json argument is also
 *                      accepted: only the speedup gates run.
 *                      Gates intra-record invariants like "the
 *                      single-pass sweep engine beats brute force
 *                      by 3x" that a before/after diff cannot see.
 *     --counter <name> additionally gate on a per-op hardware
 *                      counter ("instructions", "cycles",
 *                      "cache_misses", ...) recorded by the bench
 *                      harness.  Counters barely move under host
 *                      load, so this catches real code changes
 *                      wall time would drown in noise.  Records
 *                      without the counter (perf unavailable,
 *                      older schema) are skipped, never gated.
 *     --counter-rel <f>
 *                      relative threshold for --counter verdicts
 *                      (default 0.05 = 5%)
 *
 * Flags follow obs/flags.hh: "--name value" or "--name=value",
 * numbers read as JSON numbers are (so "nan" is refused), and
 * --help lists them.
 *
 * Records from different builds (build_type or compiler differ)
 * are never compared; records from different parallel setups are
 * compared only with --ignore-threads.
 *
 * Exit status: 0 = no regressions, 1 = at least one benchmark
 * regressed or a required speedup not met, 2 = bad usage,
 * unreadable input, a record that is not JSON or breaks the BENCH
 * schema (the message names the file and the JSON path, in every
 * mode), or incomparable records (different builds or thread
 * configurations) in a gating mode.  The exact
 * CI invocation is documented in docs/OBSERVABILITY.md.
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "obs/bench.hh"
#include "obs/flags.hh"

namespace {

/** One --require-speedup assertion: slow vs fast benchmark. */
struct SpeedupGate
{
    std::string slow;
    std::string fast;
    double min = 0.0;
};

/** The record at @p path; nullopt (with the reason on stderr) when
 *  it cannot be read or breaks the BENCH schema. */
std::optional<uatm::obs::BenchRecord>
load(const std::string &path)
{
    auto record = uatm::obs::loadBenchFile(path);
    if (!record.ok()) {
        std::fprintf(stderr, "perf_diff: %s\n",
                     record.status().message().c_str());
        return std::nullopt;
    }
    return std::move(record).value();
}

/** Benchmark names never contain ':', so the spec splits cleanly
 *  into slow:fast:min, min read as a number flag is.  Returns
 *  false on malformed input. */
bool
parseSpeedupGate(const std::string &spec, SpeedupGate &gate)
{
    const std::size_t first = spec.find(':');
    const std::size_t last = spec.rfind(':');
    if (first == std::string::npos || first == last)
        return false;
    gate.slow = spec.substr(0, first);
    gate.fast = spec.substr(first + 1, last - first - 1);
    return uatm::obs::readFlag(spec.substr(last + 1),
                               uatm::obs::JsonPath("perf_diff"),
                               gate.min)
               .ok() &&
           !gate.slow.empty() && !gate.fast.empty() && gate.min > 0.0;
}

/** Evaluate every gate against @p record; true when all hold. */
bool
checkSpeedupGates(const uatm::obs::BenchRecord &record,
                  const std::vector<SpeedupGate> &gates)
{
    bool ok = true;
    for (const SpeedupGate &gate : gates) {
        const uatm::obs::BenchResult *a = record.find(gate.slow);
        const uatm::obs::BenchResult *b = record.find(gate.fast);
        const double slow = a ? a->nsPerRepMedian : -1.0;
        const double fast = b ? b->nsPerRepMedian : -1.0;
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
    bool no_drift_norm = false;
    bool ignore_threads = false;
    std::vector<std::string> gate_specs;
    std::string counter;
    std::vector<std::string> files;
    obs::Flags flags("perf_diff",
                     "Gate median ns/op changes between two BENCH_*.json "
                     "records.");
    flags.add("report-only", report_only,
              "always exit 0, printing a refusal to compare instead");
    flags.add("sigmas", options.sigmas,
              "noise threshold in robust sigmas");
    flags.add("min-rel", options.minRelative,
              "relative change floor, as a fraction");
    flags.add("no-drift-norm", no_drift_norm,
              "gate on raw times instead of dividing the suite's "
              "median after/before ratio out first");
    flags.add("ignore-threads", ignore_threads,
              "compare even when the host core counts or thread "
              "configs differ");
    flags.add("require-speedup", gate_specs,
              "<slow>:<fast>:<min>: assert median(slow) / "
              "median(fast) >= min in the after record (repeatable; "
              "one record is then enough)");
    flags.add("counter", counter,
              "also gate on this per-op hardware counter "
              "(instructions, cycles, cache_misses, ...)");
    flags.add("counter-rel", counter_options.minRelative,
              "relative threshold for --counter verdicts, as a "
              "fraction");
    flags.operands(files, "[<before.json>] <after.json>");

    bool helped = false;
    if (const Status parsed = flags.parse(argc, argv, &helped);
        !parsed.ok())
        return flags.usageError(parsed.message());
    if (helped)
        return 0;
    if (options.sigmas <= 0.0 || options.minRelative < 0.0 ||
        counter_options.minRelative <= 0.0)
        return flags.usageError("perf_diff: --sigmas and --counter-rel "
                                "must be positive, --min-rel not "
                                "negative");
    options.normalizeDrift = !no_drift_norm;
    std::vector<SpeedupGate> gates(gate_specs.size());
    for (std::size_t i = 0; i < gates.size(); ++i) {
        if (!parseSpeedupGate(gate_specs[i], gates[i]))
            return flags.usageError(
                "perf_diff: invalid --require-speedup spec '" +
                gate_specs[i] + "'");
    }
    obs::PerfEvent counter_event = obs::PerfEvent::Instructions;
    const bool counter_armed = !counter.empty();
    if (counter_armed && !obs::perfEventFromName(counter, counter_event))
        return flags.usageError("perf_diff: unknown counter '" +
                                counter + "'");
    if (files.size() == 1 && !gates.empty()) {
        // Gate-only mode: intra-record speedup assertions.
        const auto record = load(files[0]);
        if (!record)
            return 2;
        const bool ok = checkSpeedupGates(*record, gates);
        return (!ok && !report_only) ? 1 : 0;
    }
    if (files.size() != 2)
        return flags.usageError("perf_diff: expected two records, or "
                                "one with --require-speedup");

    const auto before = load(files[0]);
    if (!before)
        return 2;
    const auto after = load(files[1]);
    if (!after)
        return 2;
    std::string error;

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
    if (!obs::perfSameBuild(*before, *after, error)) {
        return refuse("the two records time different builds; "
                      "rebuild both the same way");
    }
    if (!obs::perfComparable(*before, *after, error)) {
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
        obs::comparePerf(*before, *after, options);

    std::printf("perf_diff: %s (%s)  vs  %s (%s)\n",
                files[0].c_str(),
                before->gitDescribe.c_str(), files[1].c_str(),
                after->gitDescribe.c_str());
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
            obs::compareCounter(*before, *after, counter_event,
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
        gates_ok = checkSpeedupGates(*after, gates);
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
