/**
 * @file
 * Implementation of the microbenchmark harness and the perf
 * comparator behind tools/perf_diff.
 */

#include "obs/bench.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/manifest.hh"
#include "util/logging.hh"

#ifndef UATM_BUILD_TYPE
#define UATM_BUILD_TYPE ""
#endif

namespace uatm::obs {

namespace {

/** The CMake build type this harness was compiled in. */
const char *
buildType()
{
    return UATM_BUILD_TYPE[0] != '\0' ? UATM_BUILD_TYPE : "unknown";
}

/** Compiler family and version. */
const char *
compilerId()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** The first "model name" line of /proc/cpuinfo, or "unknown". */
std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            break;
        const auto start = line.find_first_not_of(" \t", colon + 1);
        if (start != std::string::npos)
            return line.substr(start);
        break;
    }
    return "unknown";
}

/** Median of @p samples (sorted in place; empty -> 0). */
double
median(std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = samples.size() / 2;
    if (samples.size() % 2 == 1)
        return samples[mid];
    return 0.5 * (samples[mid - 1] + samples[mid]);
}

/** Median absolute deviation around @p center. */
double
medianAbsDeviation(const std::vector<double> &samples,
                   double center)
{
    std::vector<double> deviations;
    deviations.reserve(samples.size());
    for (double s : samples)
        deviations.push_back(std::abs(s - center));
    return median(deviations);
}

/** Evaluate every entry right now (formulas see live objects). */
std::vector<std::pair<std::string, double>>
snapshotValues(const StatRegistry &registry)
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(registry.size());
    for (const auto &entry : registry.entries())
        out.emplace_back(entry.name, entry.valueNow());
    return out;
}

/** 1.4826 * MAD estimates sigma for normally distributed noise. */
constexpr double kMadToSigma = 1.4826;

} // namespace

double
BenchResult::nsPerOp() const
{
    const double items =
        itemsPerRep ? static_cast<double>(itemsPerRep) : 1.0;
    return nsPerRepMedian / items;
}

double
BenchResult::itemsPerSecond() const
{
    if (nsPerRepMedian <= 0.0)
        return 0.0;
    const double items =
        itemsPerRep ? static_cast<double>(itemsPerRep) : 1.0;
    return items * 1e9 / nsPerRepMedian;
}

void
BenchSuite::add(const std::string &name, BenchFn fn)
{
    UATM_ASSERT(!name.empty(), "benchmark name must not be empty");
    for (const auto &[existing, unused] : benchmarks_)
        UATM_ASSERT(existing != name,
                    "duplicate benchmark registration: ", name);
    benchmarks_.emplace_back(name, std::move(fn));
}

BenchResult
BenchSuite::runOne(const std::string &name, const BenchFn &fn,
                   const RunOptions &options) const
{
    BenchState state;

    std::uint32_t reps = options.reps;
    if (reps == 0) {
        reps = 20;
        if (const char *env = std::getenv("UATM_BENCH_REPS")) {
            const long long parsed = std::atoll(env);
            if (parsed >= 1) {
                reps = static_cast<std::uint32_t>(parsed);
            } else {
                warn("ignoring invalid UATM_BENCH_REPS='", env,
                     "'");
            }
        }
    }
    const std::uint32_t warmup = std::max(options.warmup, 1u);

    for (std::uint32_t i = 0; i < warmup; ++i)
        fn(state);

    // Baseline snapshot after warmup: the recorded deltas cover
    // exactly the timed repetitions.
    std::vector<std::pair<std::string, double>> before;
    if (state.statsProvider()) {
        StatRegistry registry;
        state.statsProvider()(registry);
        before = snapshotValues(registry);
    }

    // Counters run in inherit mode so threads the benchmark
    // spawns during the timed reps (e.g. runner workers) are
    // counted too.  Unavailability is recorded, never fatal.
    PerfCounterOptions counterOptions;
    counterOptions.inheritChildren = true;
    PerfCounterGroup counters(counterOptions);
    PerfReading counterBegin;
    if (counters.available()) {
        counters.start();
        counterBegin = counters.read();
    }

    std::vector<double> ns;
    ns.reserve(reps);
    for (std::uint32_t i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn(state);
        const auto t1 = std::chrono::steady_clock::now();
        ns.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0)
                .count());
    }

    PerfCounterValues counterDelta;
    if (counters.available()) {
        counterDelta = scaleDelta(counterBegin, counters.read());
        counters.stop();
    }

    BenchResult result;
    result.name = name;
    result.reps = reps;
    result.warmupReps = warmup;
    result.itemsPerRep = state.items();
    result.nsPerRepMin =
        *std::min_element(ns.begin(), ns.end());
    result.nsPerRepMedian = median(ns);
    result.nsPerRepMad =
        medianAbsDeviation(ns, result.nsPerRepMedian);
    result.hasThreads = state.threadsSet();
    result.threadsRequested = state.threadsRequested();
    result.threadsUsed = state.threadsUsed();
    result.counters = counterDelta;

    if (state.statsProvider()) {
        StatRegistry registry;
        state.statsProvider()(registry);
        for (const auto &[stat, after] :
             snapshotValues(registry)) {
            double base = 0.0;
            for (const auto &[bname, bvalue] : before) {
                if (bname == stat) {
                    base = bvalue;
                    break;
                }
            }
            result.statDelta.emplace_back(stat, after - base);
        }
    }
    return result;
}

std::filesystem::path
benchOutDir()
{
    // Tolerate a trailing slash (UATM_BENCH_OUT="out/") and any
    // embedded "./" noise: lexically_normal gives one canonical
    // path per artifact, so log-scraping and docs agree on it.
    const char *env = std::getenv("UATM_BENCH_OUT");
    const std::filesystem::path dir =
        std::filesystem::path(env && *env ? env : "bench_out")
            .lexically_normal();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        fatal("cannot create benchmark output directory '",
              dir.string(), "': ", ec.message());
    }
    return dir;
}

std::size_t
BenchSuite::run(const RunOptions &options)
{
    std::vector<const std::pair<std::string, BenchFn> *> selected;
    for (const auto &entry : benchmarks_) {
        if (options.filter.empty() ||
            entry.first.find(options.filter) != std::string::npos)
            selected.push_back(&entry);
    }

    if (options.listOnly) {
        for (const auto *entry : selected)
            std::printf("%s\n", entry->first.c_str());
        return selected.size();
    }

    results_.clear();
    std::size_t width = 9;  // "benchmark"
    for (const auto *entry : selected)
        width = std::max(width, entry->first.size());

    std::printf("%-*s %10s %12s %12s %12s %14s\n",
                static_cast<int>(width), "benchmark", "reps",
                "min ns/op", "med ns/op", "mad ns/op", "items/s");
    for (const auto *entry : selected) {
        const BenchResult result =
            runOne(entry->first, entry->second, options);
        const double items =
            result.itemsPerRep
                ? static_cast<double>(result.itemsPerRep)
                : 1.0;
        std::printf("%-*s %10llu %12.2f %12.2f %12.2f %14.0f\n",
                    static_cast<int>(width), result.name.c_str(),
                    static_cast<unsigned long long>(result.reps),
                    result.nsPerRepMin / items, result.nsPerOp(),
                    result.nsPerRepMad / items,
                    result.itemsPerSecond());
        results_.push_back(std::move(result));
    }

    if (options.writeJson && !results_.empty()) {
        const std::filesystem::path path =
            (benchOutDir() / ("BENCH_" + name_ + ".json"))
                .lexically_normal();
        std::ofstream out(path);
        if (!out) {
            fatal("cannot write benchmark record '", path.string(),
                  "'");
        }
        out << toJson();
        out.close();
        if (!out) {
            fatal("failed while writing benchmark record '",
                  path.string(), "'");
        }
        std::printf("[bench-json] wrote %s\n",
                    path.string().c_str());
    }
    return results_.size();
}

std::string
BenchSuite::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("schema_version", kBenchSchemaVersion);
    w.keyValue("suite", name_);
    w.keyValue("git_describe", Manifest::gitDescribe());
    w.keyValue("host_cores",
               std::thread::hardware_concurrency());
    w.keyValue("build_type", buildType());
    w.keyValue("compiler", compilerId());
    w.keyValue("cpu_model", cpuModel());
    w.key("benchmarks").beginArray();
    for (const auto &result : results_) {
        w.beginObject();
        w.keyValue("name", result.name);
        w.keyValue("reps", result.reps);
        w.keyValue("warmup_reps", result.warmupReps);
        w.keyValue("items_per_rep", result.itemsPerRep);
        if (result.hasThreads) {
            w.keyValue("threads_requested",
                       result.threadsRequested);
            w.keyValue("threads_used", result.threadsUsed);
        }
        w.key("ns_per_rep").beginObject()
            .keyValue("min", result.nsPerRepMin)
            .keyValue("median", result.nsPerRepMedian)
            .keyValue("mad", result.nsPerRepMad)
            .endObject();
        w.keyValue("ns_per_op", result.nsPerOp());
        w.keyValue("items_per_second", result.itemsPerSecond());
        w.key("stat_delta").beginObject();
        for (const auto &[stat, delta] : result.statDelta)
            w.keyValue(stat, delta);
        w.endObject();
        w.key("counters");
        result.counters.writeJson(w);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

double
PerfDelta::ratio() const
{
    if (verdict == Verdict::Added || verdict == Verdict::Removed ||
        beforeNsPerOp <= 0.0)
        return 0.0;
    return afterNsPerOp / beforeNsPerOp;
}

const char *
perfVerdictName(PerfDelta::Verdict verdict)
{
    switch (verdict) {
      case PerfDelta::Verdict::Similar:
        return "similar";
      case PerfDelta::Verdict::Improved:
        return "improved";
      case PerfDelta::Verdict::Regressed:
        return "REGRESSED";
      case PerfDelta::Verdict::Added:
        return "added";
      case PerfDelta::Verdict::Removed:
        return "removed";
    }
    panic("unknown PerfDelta::Verdict");
}

namespace {

/** MAD of one record, converted to ns/op units. */
double
recordMadNsPerOp(const JsonValue &record)
{
    const JsonValue *per_rep = record.find("ns_per_rep");
    const double mad =
        per_rep ? per_rep->numberOr("mad", 0.0) : 0.0;
    const double items =
        std::max(record.numberOr("items_per_rep", 1.0), 1.0);
    return mad / items;
}

const JsonValue *
findBenchmark(const JsonValue &doc, const std::string &name)
{
    const JsonValue *list = doc.find("benchmarks");
    if (!list || !list->isArray())
        return nullptr;
    for (const JsonValue &record : list->items()) {
        if (record.isObject() &&
            record.stringOr("name", "") == name)
            return &record;
    }
    return nullptr;
}

} // namespace

std::vector<PerfDelta>
comparePerf(const JsonValue &before, const JsonValue &after,
            const PerfDiffOptions &options)
{
    std::vector<PerfDelta> out;
    const JsonValue *before_list = before.find("benchmarks");
    const JsonValue *after_list = after.find("benchmarks");

    // Suite-wide drift: the median after/before ratio over the
    // matched benchmarks.  Frequency scaling and background load
    // shift every benchmark together; dividing the median shift
    // out leaves only *relative* movement for the verdicts.
    double drift = 1.0;
    if (options.normalizeDrift && before_list &&
        before_list->isArray()) {
        std::vector<double> ratios;
        for (const JsonValue &record : before_list->items()) {
            if (!record.isObject())
                continue;
            const double b = record.numberOr("ns_per_op", 0.0);
            const JsonValue *peer = findBenchmark(
                after, record.stringOr("name", "?"));
            if (!peer || b <= 0.0)
                continue;
            const double a = peer->numberOr("ns_per_op", 0.0);
            if (a > 0.0)
                ratios.push_back(a / b);
        }
        if (ratios.size() >= 3)
            drift = median(ratios);
    }

    if (before_list && before_list->isArray()) {
        for (const JsonValue &record : before_list->items()) {
            if (!record.isObject())
                continue;
            PerfDelta delta;
            delta.name = record.stringOr("name", "?");
            delta.beforeNsPerOp =
                record.numberOr("ns_per_op", 0.0);
            const JsonValue *peer =
                findBenchmark(after, delta.name);
            if (!peer) {
                delta.verdict = PerfDelta::Verdict::Removed;
                out.push_back(std::move(delta));
                continue;
            }
            delta.afterNsPerOp = peer->numberOr("ns_per_op", 0.0);
            delta.appliedDrift = drift;
            const double noise =
                options.sigmas * kMadToSigma *
                std::max(recordMadNsPerOp(record),
                         recordMadNsPerOp(*peer));
            delta.thresholdNs =
                std::max(noise, options.minRelative *
                                    delta.beforeNsPerOp);
            const double diff =
                delta.afterNsPerOp / drift - delta.beforeNsPerOp;
            if (diff > delta.thresholdNs)
                delta.verdict = PerfDelta::Verdict::Regressed;
            else if (-diff > delta.thresholdNs)
                delta.verdict = PerfDelta::Verdict::Improved;
            else
                delta.verdict = PerfDelta::Verdict::Similar;
            out.push_back(std::move(delta));
        }
    }

    if (after_list && after_list->isArray()) {
        for (const JsonValue &record : after_list->items()) {
            if (!record.isObject())
                continue;
            const std::string name = record.stringOr("name", "?");
            if (findBenchmark(before, name))
                continue;
            PerfDelta delta;
            delta.name = name;
            delta.afterNsPerOp = record.numberOr("ns_per_op", 0.0);
            delta.verdict = PerfDelta::Verdict::Added;
            out.push_back(std::move(delta));
        }
    }
    return out;
}

std::size_t
countRegressions(const std::vector<PerfDelta> &deltas)
{
    std::size_t n = 0;
    for (const auto &delta : deltas)
        n += delta.verdict == PerfDelta::Verdict::Regressed;
    return n;
}

std::string
formatPerfTable(const std::vector<PerfDelta> &deltas)
{
    std::size_t width = 9;  // "benchmark"
    for (const auto &delta : deltas)
        width = std::max(width, delta.name.size());

    std::ostringstream os;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-*s %14s %14s %9s %12s %10s\n",
                  static_cast<int>(width), "benchmark",
                  "before ns/op", "after ns/op", "change",
                  "threshold", "verdict");
    os << line;
    for (const auto &delta : deltas) {
        const bool matched =
            delta.verdict != PerfDelta::Verdict::Added &&
            delta.verdict != PerfDelta::Verdict::Removed;
        char change[16] = "-";
        if (matched && delta.beforeNsPerOp > 0.0) {
            std::snprintf(change, sizeof(change), "%+.1f%%",
                          (delta.ratio() - 1.0) * 100.0);
        }
        std::snprintf(line, sizeof(line),
                      "%-*s %14.2f %14.2f %9s %12.2f %10s\n",
                      static_cast<int>(width), delta.name.c_str(),
                      delta.beforeNsPerOp, delta.afterNsPerOp,
                      change, delta.thresholdNs,
                      perfVerdictName(delta.verdict));
        os << line;
    }
    return os.str();
}

double
CounterDelta::ratio() const
{
    if (verdict == Verdict::Skipped || beforePerOp <= 0.0)
        return 0.0;
    return afterPerOp / beforePerOp;
}

const char *
counterVerdictName(CounterDelta::Verdict verdict)
{
    switch (verdict) {
      case CounterDelta::Verdict::Similar:
        return "similar";
      case CounterDelta::Verdict::Improved:
        return "improved";
      case CounterDelta::Verdict::Regressed:
        return "REGRESSED";
      case CounterDelta::Verdict::Skipped:
        return "skipped";
    }
    panic("unknown CounterDelta::Verdict");
}

namespace {

/** Per-op counter value of one record; false when absent. */
bool
recordCounterPerOp(const JsonValue &record, PerfEvent event,
                   double &out)
{
    const JsonValue *counters = record.find("counters");
    if (!counters)
        return false;
    const PerfCounterValues values =
        PerfCounterValues::fromJson(*counters);
    if (!values.available || !values.has(event))
        return false;
    const double reps =
        std::max(record.numberOr("reps", 0.0), 1.0);
    const double items =
        std::max(record.numberOr("items_per_rep", 1.0), 1.0);
    out = values.get(event) / (reps * items);
    return true;
}

} // namespace

std::vector<CounterDelta>
compareCounter(const JsonValue &before, const JsonValue &after,
               PerfEvent event,
               const CounterDiffOptions &options)
{
    std::vector<CounterDelta> out;
    const JsonValue *before_list = before.find("benchmarks");
    if (!before_list || !before_list->isArray())
        return out;
    for (const JsonValue &record : before_list->items()) {
        if (!record.isObject())
            continue;
        const std::string name = record.stringOr("name", "?");
        const JsonValue *peer = findBenchmark(after, name);
        if (!peer)
            continue;
        CounterDelta delta;
        delta.name = name;
        delta.threshold = options.minRelative;
        double b = 0.0;
        double a = 0.0;
        if (!recordCounterPerOp(record, event, b) ||
            !recordCounterPerOp(*peer, event, a) || b <= 0.0) {
            delta.verdict = CounterDelta::Verdict::Skipped;
            out.push_back(std::move(delta));
            continue;
        }
        delta.beforePerOp = b;
        delta.afterPerOp = a;
        const double relative = (a - b) / b;
        if (relative > options.minRelative)
            delta.verdict = CounterDelta::Verdict::Regressed;
        else if (-relative > options.minRelative)
            delta.verdict = CounterDelta::Verdict::Improved;
        else
            delta.verdict = CounterDelta::Verdict::Similar;
        out.push_back(std::move(delta));
    }
    return out;
}

std::size_t
countCounterRegressions(const std::vector<CounterDelta> &deltas)
{
    std::size_t n = 0;
    for (const auto &delta : deltas)
        n += delta.verdict == CounterDelta::Verdict::Regressed;
    return n;
}

std::string
formatCounterTable(const std::vector<CounterDelta> &deltas,
                   PerfEvent event)
{
    std::size_t width = 9;  // "benchmark"
    for (const auto &delta : deltas)
        width = std::max(width, delta.name.size());

    std::ostringstream os;
    os << "counter: " << perfEventName(event) << " per op\n";
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-*s %16s %16s %9s %10s\n",
                  static_cast<int>(width), "benchmark", "before",
                  "after", "change", "verdict");
    os << line;
    for (const auto &delta : deltas) {
        char change[16] = "-";
        if (delta.verdict != CounterDelta::Verdict::Skipped &&
            delta.beforePerOp > 0.0) {
            std::snprintf(change, sizeof(change), "%+.1f%%",
                          (delta.ratio() - 1.0) * 100.0);
        }
        std::snprintf(line, sizeof(line),
                      "%-*s %16.2f %16.2f %9s %10s\n",
                      static_cast<int>(width),
                      delta.name.c_str(), delta.beforePerOp,
                      delta.afterPerOp, change,
                      counterVerdictName(delta.verdict));
        os << line;
    }
    return os.str();
}

bool
loadBenchFile(const std::string &path, JsonValue &out,
              std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    JsonParseResult parsed = parseJson(buffer.str());
    if (!parsed.ok) {
        error = "'" + path + "': " + parsed.error;
        return false;
    }
    if (!parsed.value.isObject() ||
        !parsed.value.find("benchmarks")) {
        error = "'" + path +
                "': not a BENCH_*.json document (no "
                "\"benchmarks\" member)";
        return false;
    }
    out = std::move(parsed.value);
    return true;
}

bool
perfSameBuild(const JsonValue &before, const JsonValue &after,
              std::string &error)
{
    // As with host_cores, only fields both sides recorded count.
    for (const char *field : {"build_type", "compiler"}) {
        const std::string b = before.stringOr(field, "");
        const std::string a = after.stringOr(field, "");
        if (!b.empty() && !a.empty() && b != a) {
            error = std::string(field) + " differs: before='" + b +
                    "' after='" + a + "'";
            return false;
        }
    }
    return true;
}

bool
perfComparable(const JsonValue &before, const JsonValue &after,
               std::string &error)
{
    // Only refuse on fields both sides actually recorded; older
    // records without the metadata stay comparable (best effort).
    const double coresBefore = before.numberOr("host_cores", 0.0);
    const double coresAfter = after.numberOr("host_cores", 0.0);
    if (coresBefore > 0.0 && coresAfter > 0.0 &&
        coresBefore != coresAfter) {
        std::ostringstream os;
        os << "host_cores differ: before=" << coresBefore
           << " after=" << coresAfter;
        error = os.str();
        return false;
    }

    const JsonValue *before_list = before.find("benchmarks");
    if (!before_list || !before_list->isArray())
        return true;
    for (const JsonValue &record : before_list->items()) {
        if (!record.isObject())
            continue;
        const std::string name = record.stringOr("name", "?");
        const JsonValue *peer = findBenchmark(after, name);
        if (!peer)
            continue;
        for (const char *field :
             {"threads_requested", "threads_used"}) {
            const JsonValue *b = record.find(field);
            const JsonValue *a = peer->find(field);
            if (!b || !a || !b->isNumber() || !a->isNumber())
                continue;
            if (b->asNumber() != a->asNumber()) {
                std::ostringstream os;
                os << "benchmark '" << name << "' " << field
                   << " differ: before=" << b->asNumber()
                   << " after=" << a->asNumber();
                error = os.str();
                return false;
            }
        }
    }
    return true;
}

} // namespace uatm::obs
