/**
 * @file
 * Self-contained microbenchmark harness + perf comparator.
 *
 * The harness times each registered benchmark on the monotonic
 * clock: warmup repetitions first (also where the benchmark's
 * stat provider gets wired up), then N timed repetitions, then
 * robust statistics over the per-rep times — min, median, and the
 * median absolute deviation (MAD), which tolerate the occasional
 * scheduler hiccup far better than a mean/stddev pair.  Results
 * print as an aligned table and land in a machine-readable
 * BENCH_<suite>.json under $UATM_BENCH_OUT so runs can be
 * trend-plotted (tools/plot_figures.py --bench) and gated
 * (tools/perf_diff) across commits.
 *
 * Each record carries the benchmark name, rep counts, ns/op,
 * items/s, and a stat-registry snapshot *delta* — the simulated
 * work (fills, stall cycles, ...) done by the timed reps alone —
 * so a throughput change can be told apart from a workload change.
 *
 * The comparator half (loadBenchFile/comparePerf) powers
 * tools/perf_diff: loadBenchFile() reads a record once, through
 * the checked reader, into a typed BenchRecord; changes in median
 * ns/op beyond a MAD-scaled noise threshold flag as improvements
 * or regressions, and countRegressions() turns that into a CI exit
 * code.
 */

#ifndef UATM_OBS_BENCH_HH
#define UATM_OBS_BENCH_HH

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "obs/perf_counters.hh"
#include "obs/registry.hh"

namespace uatm::obs {

/** Bumped whenever the BENCH_*.json layout changes shape. */
constexpr int kBenchSchemaVersion = 1;

/**
 * Keep @p value observably alive so the optimizer cannot delete
 * the benchmarked computation that produced it.
 */
template <typename T>
inline void
doNotOptimize(const T &value)
{
#if defined(__GNUC__) || defined(__clang__)
    asm volatile("" : : "r,m"(value) : "memory");
#else
    // Portable fallback: escape the address through a volatile.
    static const void *volatile sink;
    sink = &value;
    (void)sink;
#endif
}

/**
 * Per-run context handed to every benchmark body.  The body does
 * one fixed batch of work per call (one repetition) and declares
 * its size via setItems(); optionally it wires a stats provider
 * that registers the cumulative counters of the objects it
 * exercises — the harness snapshots that registry before and
 * after the timed reps and records the per-stat delta.
 */
class BenchState
{
  public:
    /** Items (refs, accesses, solves, ...) done per repetition. */
    void setItems(std::uint64_t items_per_rep)
    {
        items_ = items_per_rep;
    }

    /**
     * Register cumulative counters into @p registry each call.
     * Invoked once after warmup (baseline) and once after the
     * last timed rep; the JSON record keeps value deltas.
     */
    void
    setStatsProvider(std::function<void(StatRegistry &)> provider)
    {
        statsProvider_ = std::move(provider);
    }

    /**
     * Declare the thread configuration this benchmark ran with
     * (e.g. from Runner::lastStats()).  Recorded per benchmark
     * in the JSON so tools/perf_diff can refuse to compare runs
     * whose thread configs differ; @p used keeps the runner
     * convention of 0 meaning inline on the calling thread.
     */
    void
    setThreads(unsigned requested, unsigned used)
    {
        threadsRequested_ = requested;
        threadsUsed_ = used;
        threadsSet_ = true;
    }

    std::uint64_t items() const { return items_; }
    bool threadsSet() const { return threadsSet_; }
    unsigned threadsRequested() const { return threadsRequested_; }
    unsigned threadsUsed() const { return threadsUsed_; }
    const std::function<void(StatRegistry &)> &
    statsProvider() const
    {
        return statsProvider_;
    }

  private:
    std::uint64_t items_ = 0;
    unsigned threadsRequested_ = 0;
    unsigned threadsUsed_ = 0;
    bool threadsSet_ = false;
    std::function<void(StatRegistry &)> statsProvider_;
};

using BenchFn = std::function<void(BenchState &)>;

/** Robust timing summary plus the work done by one benchmark. */
struct BenchResult
{
    std::string name;
    std::uint64_t reps = 0;
    std::uint64_t warmupReps = 0;
    std::uint64_t itemsPerRep = 0;

    double nsPerRepMin = 0.0;
    double nsPerRepMedian = 0.0;
    double nsPerRepMad = 0.0;  ///< raw MAD around the median

    /** Thread config declared via BenchState::setThreads(). */
    bool hasThreads = false;
    unsigned threadsRequested = 0;
    unsigned threadsUsed = 0;

    /** (stat name, after - before) over the timed reps. */
    std::vector<std::pair<std::string, double>> statDelta;

    /**
     * Hardware counter deltas summed over the timed reps (child
     * threads included), for perf_diff --counter gating.
     * available == false when the host forbids perf_event_open.
     */
    PerfCounterValues counters;

    /** Median ns per item (per rep when items were not set). */
    double nsPerOp() const;

    /** Items per wall-clock second at the median rep time. */
    double itemsPerSecond() const;
};

/**
 * An ordered set of named benchmarks, run together as one suite.
 */
class BenchSuite
{
  public:
    struct RunOptions
    {
        /** Only run benchmarks whose name contains this. */
        std::string filter;

        /** Print the (filtered) names and do nothing else. */
        bool listOnly = false;

        /** Timed repetitions; 0 = $UATM_BENCH_REPS if set, else
         *  20.  An explicit value (e.g. from --reps=) wins. */
        std::uint32_t reps = 0;

        /** Skip writing BENCH_<suite>.json (tests). */
        bool writeJson = true;
    };

    explicit BenchSuite(std::string name) : name_(std::move(name))
    {}

    const std::string &name() const { return name_; }

    /** Register a benchmark; duplicate names panic. */
    void add(const std::string &name, BenchFn fn);

    std::size_t size() const { return benchmarks_.size(); }

    /**
     * Run every benchmark matching the filter, each after
     * kWarmupReps untimed repetitions, print an aligned result
     * table, and (unless disabled) write
     * benchOutDir()/BENCH_<suite>.json.  Returns the number run (or,
     * with listOnly, the number of names printed), or the IoError
     * of a record that could not be written.
     */
    Expected<std::size_t> run(const RunOptions &options);

    /** Untimed repetitions before a benchmark's timed ones, so
     *  stat providers get wired before the baseline snapshot. */
    static constexpr std::uint32_t kWarmupReps = 2;

    /** Results of the last run(), in execution order. */
    const std::vector<BenchResult> &results() const
    {
        return results_;
    }

    /** The last run() as a BENCH_*.json document. */
    std::string toJson() const;

  private:
    std::string name_;
    std::vector<std::pair<std::string, BenchFn>> benchmarks_;
    std::vector<BenchResult> results_;

    BenchResult runOne(const std::string &name, const BenchFn &fn,
                       std::uint32_t reps) const;
};

/**
 * A BENCH_*.json document as the comparators read it.  The keys
 * older records may lack read as "not recorded": host_cores,
 * build_type and compiler, and per benchmark threads_requested,
 * threads_used and counters (plus warmup_reps, ns_per_rep.min and
 * stat_delta, which no comparison uses).  Every other key a
 * comparison uses is required; unknown keys are ignored.
 */
struct BenchRecord
{
    std::string gitDescribe = "?";
    unsigned hostCores = 0;  ///< 0 when not recorded
    std::string buildType;   ///< empty when not recorded
    std::string compiler;    ///< empty when not recorded
    std::vector<BenchResult> benchmarks;

    /** The first benchmark named @p name; nullptr when absent. */
    const BenchResult *find(const std::string &name) const;

    /** Read one document; @p document names it in errors. */
    static Expected<BenchRecord>
    fromJson(std::string_view text,
             std::string_view document = "bench record");
};

/**
 * Read one BENCH_*.json file: an IoError when it cannot be opened,
 * else a ParseError naming the file and the JSON path when it is
 * not JSON or breaks the schema.
 */
Expected<BenchRecord> loadBenchFile(const std::string &path);

/**
 * Where benchmarks write their artifacts: $UATM_BENCH_OUT, or
 * "bench_out" when that is unset or empty, lexically normalised
 * and created (recursively) if missing.  A directory that cannot
 * be created is fatal: the run could not record its results.
 */
std::filesystem::path benchOutDir();

/** How one benchmark's median ns/op moved between two runs. */
struct PerfDelta
{
    enum class Verdict : std::uint8_t
    {
        Similar,    ///< within the noise threshold
        Improved,   ///< faster beyond the threshold
        Regressed,  ///< slower beyond the threshold
        Added,      ///< only in the after run
        Removed,    ///< only in the before run
    };

    std::string name;
    double beforeNsPerOp = 0.0;
    double afterNsPerOp = 0.0;
    double thresholdNs = 0.0;  ///< noise allowance applied
    Verdict verdict = Verdict::Similar;

    /** Suite-wide drift factor divided out of the after time
     *  before the verdict was taken (1.0 = none applied). */
    double appliedDrift = 1.0;

    /** after/before; 0 when the benchmark is Added/Removed. */
    double ratio() const;
};

const char *perfVerdictName(PerfDelta::Verdict verdict);

struct PerfDiffOptions
{
    /** Noise threshold in MAD-derived sigmas (1.4826 * MAD). */
    double sigmas = 4.0;

    /** Relative floor: ignore changes below this fraction of the
     *  before time, however quiet the MADs claim the runs are.
     *  The 10% default absorbs the between-run frequency/load
     *  drift of shared machines; tighten it (--min-rel) on a
     *  dedicated runner. */
    double minRelative = 0.10;

    /** Divide the median after/before ratio of the suite out of
     *  every after time before taking verdicts (needs >= 3
     *  matched benchmarks).  Machine-frequency/load drift moves
     *  the whole suite together; a code regression is localized
     *  — so this gates on *relative* movement and survives noisy
     *  shared runners.  The cost: a change that slows every
     *  benchmark uniformly reads as drift, so the applied factor
     *  is reported (PerfDelta::appliedDrift) for a human to
     *  sanity-check. */
    bool normalizeDrift = true;
};

/**
 * Compare two BENCH_*.json records benchmark-by-benchmark (matched
 * on name, in before-record order, with added benchmarks
 * appended).
 */
std::vector<PerfDelta>
comparePerf(const BenchRecord &before, const BenchRecord &after,
            const PerfDiffOptions &options = {});

/**
 * How one benchmark's per-op hardware counter moved between two
 * runs.  Counter gating (perf_diff --counter=instructions) is the
 * low-noise complement of wall-time gating: instructions retired
 * per op barely move under frequency scaling or host load, so a
 * change beyond the relative threshold is a code change, not
 * noise.
 */
struct CounterDelta
{
    enum class Verdict : std::uint8_t
    {
        Similar,    ///< within the relative threshold
        Improved,   ///< fewer counts per op beyond it
        Regressed,  ///< more counts per op beyond it
        Skipped,    ///< a side lacks the counter; never gates
    };

    std::string name;
    double beforePerOp = 0.0;
    double afterPerOp = 0.0;
    /** Relative threshold applied (counterMinRelative). */
    double threshold = 0.0;
    Verdict verdict = Verdict::Skipped;

    /** after/before; 0 when Skipped or before is 0. */
    double ratio() const;
};

const char *counterVerdictName(CounterDelta::Verdict verdict);

struct CounterDiffOptions
{
    /** Relative change below this fraction is Similar.  Counters
     *  are far quieter than wall time, so 5% is generous. */
    double minRelative = 0.05;
};

/**
 * Compare one hardware counter, per op (value / (reps * items)),
 * across two BENCH_*.json documents.  Benchmarks missing from
 * either side are omitted; benchmarks where either record lacks
 * an available value for @p event appear as Skipped so the CLI
 * can say so without gating on them.
 */
std::vector<CounterDelta>
compareCounter(const BenchRecord &before, const BenchRecord &after,
               PerfEvent event,
               const CounterDiffOptions &options = {});

/** Regressed entries in @p deltas (Skipped never counts). */
std::size_t
countCounterRegressions(const std::vector<CounterDelta> &deltas);

/** Aligned per-op counter before/after table. */
std::string
formatCounterTable(const std::vector<CounterDelta> &deltas,
                   PerfEvent event);

/** Regressed entries in @p deltas (the gate's exit code). */
std::size_t countRegressions(const std::vector<PerfDelta> &deltas);

/** Aligned before/after/delta/verdict table for terminals. */
std::string formatPerfTable(const std::vector<PerfDelta> &deltas);

/**
 * True when two BENCH_*.json documents come from the same build:
 * the same build_type and compiler (when both recorded one).  A
 * Debug and a Release build, or two compilers, time different
 * machine code, so perf_diff refuses to gate across them and no
 * flag overrides that.  On mismatch @p error names the field.
 */
bool perfSameBuild(const BenchRecord &before,
                   const BenchRecord &after, std::string &error);

/**
 * True when two BENCH_*.json documents were measured on
 * comparable configurations: same host core count (when both
 * recorded one) and, for every benchmark present in both, the
 * same threads_requested/threads_used.  On mismatch @p error
 * explains which field differs; perf_diff refuses to gate on
 * incomparable runs (--ignore-threads overrides).
 */
bool perfComparable(const BenchRecord &before,
                    const BenchRecord &after, std::string &error);

} // namespace uatm::obs

#endif // UATM_OBS_BENCH_HH
