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
#include <tuple>

#include "obs/flags.hh"
#include "obs/manifest.hh"
#include "util/file.hh"
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
                   std::uint32_t reps) const
{
    BenchState state;

    for (std::uint32_t i = 0; i < kWarmupReps; ++i)
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
    result.warmupReps = kWarmupReps;
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

Expected<std::size_t>
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
    const std::uint32_t reps =
        options.reps ? options.reps
                     : readEnvCount("UATM_BENCH_REPS", std::uint32_t{20});
    std::size_t width = 9;  // "benchmark"
    for (const auto *entry : selected)
        width = std::max(width, entry->first.size());

    std::printf("%-*s %10s %12s %12s %12s %14s\n",
                static_cast<int>(width), "benchmark", "reps",
                "min ns/op", "med ns/op", "mad ns/op", "items/s");
    for (const auto *entry : selected) {
        const BenchResult result =
            runOne(entry->first, entry->second, reps);
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
        if (Status written = writeWholeFile(
                path.string(),
                [this](std::ostream &out) { out << toJson(); });
            !written.ok())
            return written;
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

/** MAD of one benchmark, converted to ns/op units. */
double
madNsPerOp(const BenchResult &result)
{
    return result.nsPerRepMad /
           std::max(static_cast<double>(result.itemsPerRep), 1.0);
}

} // namespace

std::vector<PerfDelta>
comparePerf(const BenchRecord &before, const BenchRecord &after,
            const PerfDiffOptions &options)
{
    std::vector<PerfDelta> out;

    // Suite-wide drift: the median after/before ratio over the
    // matched benchmarks.  Frequency scaling and background load
    // shift every benchmark together; dividing the median shift
    // out leaves only *relative* movement for the verdicts.
    double drift = 1.0;
    if (options.normalizeDrift) {
        std::vector<double> ratios;
        for (const BenchResult &record : before.benchmarks) {
            const double b = record.nsPerOp();
            const BenchResult *peer = after.find(record.name);
            if (!peer || b <= 0.0)
                continue;
            const double a = peer->nsPerOp();
            if (a > 0.0)
                ratios.push_back(a / b);
        }
        if (ratios.size() >= 3)
            drift = median(ratios);
    }

    for (const BenchResult &record : before.benchmarks) {
        PerfDelta delta;
        delta.name = record.name;
        delta.beforeNsPerOp = record.nsPerOp();
        const BenchResult *peer = after.find(delta.name);
        if (!peer) {
            delta.verdict = PerfDelta::Verdict::Removed;
            out.push_back(std::move(delta));
            continue;
        }
        delta.afterNsPerOp = peer->nsPerOp();
        delta.appliedDrift = drift;
        const double noise =
            options.sigmas * kMadToSigma *
            std::max(madNsPerOp(record), madNsPerOp(*peer));
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

    for (const BenchResult &record : after.benchmarks) {
        if (before.find(record.name))
            continue;
        PerfDelta delta;
        delta.name = record.name;
        delta.afterNsPerOp = record.nsPerOp();
        delta.verdict = PerfDelta::Verdict::Added;
        out.push_back(std::move(delta));
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

/** Per-op counter value of one benchmark; false when absent. */
bool
counterPerOp(const BenchResult &result, PerfEvent event, double &out)
{
    if (!result.counters.available || !result.counters.has(event))
        return false;
    const double reps =
        std::max(static_cast<double>(result.reps), 1.0);
    const double items =
        std::max(static_cast<double>(result.itemsPerRep), 1.0);
    out = result.counters.get(event) / (reps * items);
    return true;
}

} // namespace

std::vector<CounterDelta>
compareCounter(const BenchRecord &before, const BenchRecord &after,
               PerfEvent event,
               const CounterDiffOptions &options)
{
    std::vector<CounterDelta> out;
    for (const BenchResult &record : before.benchmarks) {
        const BenchResult *peer = after.find(record.name);
        if (!peer)
            continue;
        CounterDelta delta;
        delta.name = record.name;
        delta.threshold = options.minRelative;
        double b = 0.0;
        double a = 0.0;
        if (!counterPerOp(record, event, b) ||
            !counterPerOp(*peer, event, a) || b <= 0.0) {
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

namespace {

/** threads_requested or threads_used: either marks the benchmark
 *  as having declared its thread config. */
template <unsigned BenchResult::*Member>
Status
readThreads(const JsonValue &value, const JsonPath &path,
            BenchResult &out)
{
    out.hasThreads = true;
    return readJson(value, path, out.*Member);
}

const JsonField<BenchResult> kNsPerRepFields[] = {
    field<&BenchResult::nsPerRepMin>("min"),
    field<&BenchResult::nsPerRepMedian>("median", true),
    field<&BenchResult::nsPerRepMad>("mad", true),
};

const JsonField<BenchResult> kBenchmarkFields[] = {
    field<&BenchResult::name>("name", true),
    field<&BenchResult::reps>("reps", true),
    field<&BenchResult::warmupReps>("warmup_reps"),
    field<&BenchResult::itemsPerRep>("items_per_rep", true),
    {"threads_requested", readThreads<&BenchResult::threadsRequested>},
    {"threads_used", readThreads<&BenchResult::threadsUsed>},
    {"ns_per_rep",
     [](auto &value, auto &path, BenchResult &out) {
         return readObject(value, path, out, kNsPerRepFields);
     },
     true},
    {"stat_delta",
     [](auto &value, auto &path, BenchResult &out) {
         return readMembers(value, path, [&out](const auto &stat,
                                                const auto &delta,
                                                const auto &at) {
             out.statDelta.emplace_back(stat, 0.0);
             return readJson(delta, at, out.statDelta.back().second);
         });
     }},
    field<&BenchResult::counters>("counters"),
};

const JsonField<BenchRecord> kRecordFields[] = {
    field<&BenchRecord::gitDescribe>("git_describe"),
    field<&BenchRecord::hostCores>("host_cores"),
    field<&BenchRecord::buildType>("build_type"),
    field<&BenchRecord::compiler>("compiler"),
    field<&BenchRecord::benchmarks, &kBenchmarkFields>("benchmarks",
                                                       true),
};

} // namespace

const BenchResult *
BenchRecord::find(const std::string &name) const
{
    for (const BenchResult &result : benchmarks) {
        if (result.name == name)
            return &result;
    }
    return nullptr;
}

Expected<BenchRecord>
BenchRecord::fromJson(std::string_view text, std::string_view document)
{
    BenchRecord record;
    if (Status s = readDocument(text, document, record, kRecordFields);
        !s.ok())
        return s;
    return record;
}

Expected<BenchRecord>
loadBenchFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::ioError("cannot open '", path, "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return BenchRecord::fromJson(buffer.str(), "'" + path + "'");
}

bool
perfSameBuild(const BenchRecord &before, const BenchRecord &after,
              std::string &error)
{
    // As with host_cores, only fields both sides recorded count.
    for (const auto &[field, b, a] :
         {std::tuple{"build_type", &before.buildType, &after.buildType},
          std::tuple{"compiler", &before.compiler, &after.compiler}}) {
        if (!b->empty() && !a->empty() && *b != *a) {
            error = std::string(field) + " differs: before='" + *b +
                    "' after='" + *a + "'";
            return false;
        }
    }
    return true;
}

bool
perfComparable(const BenchRecord &before, const BenchRecord &after,
               std::string &error)
{
    // Only refuse on fields both sides actually recorded; older
    // records without the metadata stay comparable (best effort).
    if (before.hostCores > 0 && after.hostCores > 0 &&
        before.hostCores != after.hostCores) {
        std::ostringstream os;
        os << "host_cores differ: before=" << before.hostCores
           << " after=" << after.hostCores;
        error = os.str();
        return false;
    }

    for (const BenchResult &record : before.benchmarks) {
        const BenchResult *peer = after.find(record.name);
        if (!peer || !record.hasThreads || !peer->hasThreads)
            continue;
        for (const auto &[field, b, a] :
             {std::tuple{"threads_requested", record.threadsRequested,
                         peer->threadsRequested},
              std::tuple{"threads_used", record.threadsUsed,
                         peer->threadsUsed}}) {
            if (b != a) {
                std::ostringstream os;
                os << "benchmark '" << record.name << "' " << field
                   << " differ: before=" << b << " after=" << a;
                error = os.str();
                return false;
            }
        }
    }
    return true;
}

} // namespace uatm::obs
