/**
 * @file
 * RunnerTelemetry serialization, parsing, and derived metrics.
 */

#include "exp/telemetry.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/json.hh"
#include "util/file.hh"
#include "util/logging.hh"

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

void
RunnerTelemetry::warnFailures() const
{
    for (const PointFailure &failure : failures) {
        warn("point ", failure.index, " (", failure.label,
             ") failed: ", failure.status.toString());
    }
}

Status
RunnerTelemetry::firstFailure() const
{
    return failures.empty() ? Status() : failures.front().status;
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
    return writeWholeFile(
        path, [this](std::ostream &out) { out << toJson() << "\n"; });
}

namespace {

const obs::JsonField<WorkerTelemetry> kWorkerFields[] = {
    obs::field<&WorkerTelemetry::worker>("worker"),
    obs::field<&WorkerTelemetry::points>("points"),
    obs::field<&WorkerTelemetry::kernelNs>("kernel_ns"),
    obs::field<&WorkerTelemetry::acquireNs>("acquire_ns"),
    obs::field<&WorkerTelemetry::idleNs>("idle_ns"),
    obs::field<&WorkerTelemetry::lifetimeNs>("lifetime_ns"),
    // Absent from v1 documents: counters stay unavailable.
    obs::field<&WorkerTelemetry::counters>("counters"),
};

const obs::JsonField<PointTiming> kPointFields[] = {
    obs::field<&PointTiming::index>("index"),
    obs::field<&PointTiming::worker>("worker"),
    obs::field<&PointTiming::startNs>("start_ns"),
    obs::field<&PointTiming::durationNs>("ns"),
    obs::field<&PointTiming::label>("label"),
};

/** What every RUNNER document starts with; v1 and v2 load too, and
 *  their "armed" key is ignored like every key no table lists.
 *  Anything newer than us is an error, not a partial read. */
struct Header
{
    std::string kind;
    unsigned version = 0;
};

const obs::JsonField<Header> kHeaderFields[] = {
    obs::field<&Header::kind>("kind", true),
    obs::field<&Header::version, 1, kTelemetrySchemaVersion>(
        "schema_version", true),
};

const obs::JsonField<RunnerTelemetry> kTelemetryFields[] = {
    obs::field<&RunnerTelemetry::scenario>("scenario"),
    obs::field<&RunnerTelemetry::threadsRequested>("threads_requested"),
    obs::field<&RunnerTelemetry::threadsUsed>("threads_used"),
    obs::field<&RunnerTelemetry::pointCount>("points"),
    obs::field<&RunnerTelemetry::pointsFailed>("points_failed"),
    obs::field<&RunnerTelemetry::wallNs>("wall_ns"),
    obs::field<&RunnerTelemetry::expandNs>("expand_ns"),
    obs::field<&RunnerTelemetry::mergeNs>("merge_ns"),
    obs::field<&RunnerTelemetry::workers, &kWorkerFields>("workers",
                                                          true),
    obs::field<&RunnerTelemetry::points, &kPointFields>(
        "point_durations"),
};

} // namespace

Expected<RunnerTelemetry>
RunnerTelemetry::fromJson(const obs::JsonValue &doc,
                          std::string_view document)
{
    const obs::JsonPath path(document);
    Header header;
    if (Status s = obs::readObject(doc, path, header, kHeaderFields);
        !s.ok())
        return s;
    if (header.kind != "runner_telemetry")
        return path.key("kind").error("must be \"runner_telemetry\" (got ",
                                      obs::JsonWriter::escape(header.kind),
                                      ")");
    RunnerTelemetry t;
    if (Status s = obs::readObject(doc, path, t, kTelemetryFields);
        !s.ok())
        return s;

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
    const std::string document = "telemetry file '" + path + "'";
    const obs::JsonParseResult parsed = obs::parseJson(text.str());
    if (!parsed)
        return Status::parseError(document, ": ", parsed.error);
    return fromJson(parsed.value, document);
}

} // namespace uatm::exp
