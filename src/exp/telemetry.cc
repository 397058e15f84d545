/**
 * @file
 * RunnerTelemetry serialization, parsing, and derived metrics.
 */

#include "exp/telemetry.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/json.hh"

namespace uatm::exp {

double
WorkerTelemetry::utilization() const
{
    if (lifetimeNs == 0)
        return 0.0;
    return static_cast<double>(kernelNs) /
           static_cast<double>(lifetimeNs);
}

std::uint64_t
RunnerTelemetry::kernelNsTotal() const
{
    std::uint64_t total = 0;
    for (const auto &w : workers)
        total += w.kernelNs;
    return total;
}

double
RunnerTelemetry::loadImbalance() const
{
    if (workers.empty())
        return 0.0;
    std::uint64_t maxNs = 0;
    std::uint64_t sumNs = 0;
    for (const auto &w : workers) {
        maxNs = std::max(maxNs, w.kernelNs);
        sumNs += w.kernelNs;
    }
    if (sumNs == 0)
        return 0.0;
    const double mean = static_cast<double>(sumNs) /
                        static_cast<double>(workers.size());
    return static_cast<double>(maxNs) / mean;
}

double
RunnerTelemetry::parallelEfficiency() const
{
    if (wallNs == 0 || workers.empty())
        return 0.0;
    const double capacity =
        static_cast<double>(wallNs) *
        static_cast<double>(workers.size());
    return static_cast<double>(kernelNsTotal()) / capacity;
}

std::string
RunnerTelemetry::toJson() const
{
    obs::JsonWriter w;
    w.beginObject()
        .keyValue("schema_version", kTelemetrySchemaVersion)
        .keyValue("kind", "runner_telemetry")
        .keyValue("scenario", scenario)
        .keyValue("threads_requested", threadsRequested)
        .keyValue("threads_used", threadsUsed)
        .keyValue("points", pointCount)
        .keyValue("points_failed", pointsFailed)
        .keyValue("wall_ns", wallNs)
        .keyValue("expand_ns", expandNs)
        .keyValue("merge_ns", mergeNs);

    w.key("workers").beginArray();
    for (const auto &worker : workers) {
        w.beginObject()
            .keyValue("worker", worker.worker)
            .keyValue("points", worker.points)
            .keyValue("kernel_ns", worker.kernelNs)
            .keyValue("acquire_ns", worker.acquireNs)
            .keyValue("idle_ns", worker.idleNs)
            .keyValue("lifetime_ns", worker.lifetimeNs);
        w.key("counters");
        worker.counters.writeJson(w);
        w.endObject();
    }
    w.endArray();

    w.key("point_durations").beginArray();
    for (const auto &point : points) {
        w.beginObject()
            .keyValue("index", point.index)
            .keyValue("worker", point.worker)
            .keyValue("start_ns", point.startNs)
            .keyValue("ns", point.durationNs)
            .keyValue("label", point.label)
            .endObject();
    }
    w.endArray();

    w.key("point_latency").beginObject()
        .keyValue("count", pointLatency.count())
        .keyValue("sum_ns", pointLatency.sum())
        .keyValue("min_ns", pointLatency.min())
        .keyValue("max_ns", pointLatency.max())
        .keyValue("p50_ns", pointLatency.p50())
        .keyValue("p95_ns", pointLatency.p95())
        .keyValue("p99_ns", pointLatency.p99())
        .endObject();

    w.endObject();
    return w.str();
}

Status
RunnerTelemetry::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return Status::ioError("cannot write telemetry file '",
                               path, "'");
    out << toJson() << "\n";
    if (!out)
        return Status::ioError("short write to telemetry file '",
                               path, "'");
    return Status();
}

Expected<RunnerTelemetry>
RunnerTelemetry::fromJson(const obs::JsonValue &doc)
{
    if (!doc.isObject())
        return Status::parseError(
            "telemetry document is not a JSON object");
    if (doc.stringOr("kind", "") != "runner_telemetry")
        return Status::parseError(
            "not a runner_telemetry document (kind='",
            doc.stringOr("kind", "<missing>"), "')");
    const int version = static_cast<int>(
        doc.numberOr("schema_version", -1));
    // v1 documents lack the per-worker counters object and parse
    // with counters unavailable; the "armed" key of v1 and v2 is
    // ignored.  Anything newer than us is an error rather than a
    // silent partial read.
    if (version < 1 || version > kTelemetrySchemaVersion)
        return Status::parseError(
            "unsupported telemetry schema_version ", version,
            " (expected 1..", kTelemetrySchemaVersion, ")");

    RunnerTelemetry t;
    t.scenario = doc.stringOr("scenario", "");
    t.threadsRequested = static_cast<unsigned>(
        doc.numberOr("threads_requested", 0));
    t.threadsUsed = static_cast<unsigned>(
        doc.numberOr("threads_used", 0));
    t.pointCount = static_cast<std::uint64_t>(
        doc.numberOr("points", 0));
    t.pointsFailed = static_cast<std::uint64_t>(
        doc.numberOr("points_failed", 0));
    t.wallNs = static_cast<std::uint64_t>(
        doc.numberOr("wall_ns", 0));
    t.expandNs = static_cast<std::uint64_t>(
        doc.numberOr("expand_ns", 0));
    t.mergeNs = static_cast<std::uint64_t>(
        doc.numberOr("merge_ns", 0));

    const obs::JsonValue *workers = doc.find("workers");
    if (!workers || !workers->isArray())
        return Status::parseError(
            "telemetry document lacks a 'workers' array");
    for (const auto &item : workers->items()) {
        if (!item.isObject())
            return Status::parseError(
                "'workers' entry is not an object");
        WorkerTelemetry w;
        w.worker = static_cast<unsigned>(
            item.numberOr("worker", 0));
        w.points = static_cast<std::uint64_t>(
            item.numberOr("points", 0));
        w.kernelNs = static_cast<std::uint64_t>(
            item.numberOr("kernel_ns", 0));
        w.acquireNs = static_cast<std::uint64_t>(
            item.numberOr("acquire_ns", 0));
        w.idleNs = static_cast<std::uint64_t>(
            item.numberOr("idle_ns", 0));
        w.lifetimeNs = static_cast<std::uint64_t>(
            item.numberOr("lifetime_ns", 0));
        if (const obs::JsonValue *counters =
                item.find("counters")) {
            w.counters =
                obs::PerfCounterValues::fromJson(*counters);
        }
        t.workers.push_back(w);
    }

    if (const obs::JsonValue *durations =
            doc.find("point_durations");
        durations && durations->isArray()) {
        for (const auto &item : durations->items()) {
            if (!item.isObject())
                return Status::parseError(
                    "'point_durations' entry is not an object");
            PointTiming p;
            p.index = static_cast<std::size_t>(
                item.numberOr("index", 0));
            p.worker = static_cast<unsigned>(
                item.numberOr("worker", 0));
            p.startNs = static_cast<std::uint64_t>(
                item.numberOr("start_ns", 0));
            p.durationNs = static_cast<std::uint64_t>(
                item.numberOr("ns", 0));
            p.label = item.stringOr("label", "");
            t.points.push_back(std::move(p));
        }
    }

    // The histogram buckets are not serialized (the quantile
    // summary is); rebuild from the per-point durations so a
    // loaded document still answers quantile queries.
    for (const auto &point : t.points)
        t.pointLatency.add(
            static_cast<double>(point.durationNs));

    return t;
}

Expected<RunnerTelemetry>
RunnerTelemetry::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::ioError("cannot open telemetry file '",
                               path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    const obs::JsonParseResult parsed = obs::parseJson(text.str());
    if (!parsed)
        return Status::parseError("telemetry file '", path,
                                  "': ", parsed.error);
    return fromJson(parsed.value);
}

void
RunnerTelemetry::registerStats(obs::StatRegistry &registry,
                               const std::string &prefix) const
{
    obs::StatGroup group(registry, prefix);
    group.addScalar("threads_requested", threadsRequested,
                    "worker threads requested");
    group.addScalar("threads_used", threadsUsed,
                    "worker threads spawned (0 = inline)");
    group.addScalar("points", static_cast<double>(pointCount),
                    "points executed");
    group.addScalar("points_failed",
                    static_cast<double>(pointsFailed),
                    "points that produced an error row");
    group.addScalar("wall_ns", static_cast<double>(wallNs),
                    "pool wall-clock time", "ns");
    group.addScalar("expand_ns", static_cast<double>(expandNs),
                    "scenario expansion time", "ns");
    group.addScalar("merge_ns", static_cast<double>(mergeNs),
                    "deterministic slot-merge time", "ns");
    group.addScalar("load_imbalance", loadImbalance(),
                    "max/mean per-worker kernel time");
    group.addScalar("parallel_efficiency", parallelEfficiency(),
                    "kernel time / pool wall-clock capacity");
    group.addLatencyHistogram("point_ns", pointLatency,
                              "per-point kernel latency", "ns");
    for (const auto &worker : workers) {
        obs::StatGroup wg = group.group(
            "worker" + std::to_string(worker.worker));
        wg.addScalar("utilization", worker.utilization(),
                     "kernel time / worker lifetime");
        if (!worker.counters.available)
            continue;
        using obs::PerfEvent;
        if (worker.counters.has(PerfEvent::Instructions) &&
            worker.counters.has(PerfEvent::Cycles)) {
            wg.addScalar("ipc", worker.counters.ipc(),
                         "instructions per cycle");
        }
        if (worker.counters.has(PerfEvent::CacheMisses) &&
            worker.counters.has(PerfEvent::CacheReferences)) {
            wg.addScalar("cache_miss_rate",
                         worker.counters.cacheMissRate(),
                         "cache misses / cache references");
        }
        if (worker.counters.has(PerfEvent::CpuMigrations)) {
            wg.addScalar(
                "cpu_migrations",
                worker.counters.get(PerfEvent::CpuMigrations),
                "cpu migrations over the worker's lifetime");
        }
    }
}

} // namespace uatm::exp
