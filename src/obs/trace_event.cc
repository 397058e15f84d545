/**
 * @file
 * Implementation of the stall-interval tracer and its Chrome
 * trace_event exporter.
 */

#include "obs/trace_event.hh"

#include <cstdlib>
#include <map>
#include <ostream>

#include "obs/json.hh"
#include "obs/registry.hh"
#include "util/file.hh"
#include "util/logging.hh"

namespace uatm::obs {

EventTracer::EventTracer(std::size_t capacity)
{
    setCapacity(capacity);
}

void
EventTracer::setCapacity(std::size_t capacity)
{
    UATM_ASSERT(capacity >= 1, "tracer needs at least one slot");
    ring_.assign(capacity, TraceEvent{});
    head_ = 0;
    recorded_ = 0;
}

std::size_t
EventTracer::size() const
{
    return recorded_ < ring_.size()
               ? static_cast<std::size_t>(recorded_)
               : ring_.size();
}

std::uint64_t
EventTracer::dropped() const
{
    return recorded_ < ring_.size() ? 0 : recorded_ - ring_.size();
}

const char *
EventTracer::intern(const std::string &name)
{
    return interned_.insert(name).first->c_str();
}

void
EventTracer::registerStats(StatRegistry &registry,
                           const std::string &prefix) const
{
    registry.addScalar(prefix + ".recorded",
                       static_cast<double>(recorded()),
                       "trace events ever recorded");
    registry.addScalar(prefix + ".dropped",
                       static_cast<double>(dropped()),
                       "trace events lost to ring wraparound");
    registry.addScalar(prefix + ".capacity",
                       static_cast<double>(capacity()),
                       "trace ring capacity in events");
}

std::vector<TraceEvent>
EventTracer::events() const
{
    std::vector<TraceEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    // Oldest event: at index 0 until the ring wraps, then at head_
    // (the next slot to be overwritten).
    const std::size_t oldest =
        recorded_ < ring_.size() ? 0 : head_;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(ring_[(oldest + i) % ring_.size()]);
    return out;
}

void
EventTracer::clear()
{
    head_ = 0;
    recorded_ = 0;
}

std::string
EventTracer::toChromeJson() const
{
    // Stable tid per category so each stall class gets its own
    // track in the viewer.  Counter samples attach to the process
    // (their track is named by the event, not a thread).
    std::map<std::string, int> tids;
    const auto all = events();
    for (const auto &event : all) {
        if (!event.counter)
            tids.emplace(event.category,
                         static_cast<int>(tids.size()) + 1);
    }

    JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();

    w.beginObject()
        .keyValue("name", "process_name")
        .keyValue("ph", "M")
        .keyValue("pid", 0)
        .key("args").beginObject()
        .keyValue("name", "uatm timing engine (1 cycle = 1us)")
        .endObject()
        .endObject();
    for (const auto &[category, tid] : tids) {
        w.beginObject()
            .keyValue("name", "thread_name")
            .keyValue("ph", "M")
            .keyValue("pid", 0)
            .keyValue("tid", tid)
            .key("args").beginObject()
            .keyValue("name", category)
            .endObject()
            .endObject();
    }

    for (const auto &event : all) {
        w.beginObject()
            .keyValue("name", event.name)
            .keyValue("cat", event.category)
            .keyValue("pid", 0);
        if (event.counter) {
            w.keyValue("ts", event.start)
                .keyValue("ph", "C")
                .key("args").beginObject()
                .keyValue("value", event.arg)
                .endObject()
                .endObject();
            continue;
        }
        w.keyValue("tid", tids.at(event.category))
            .keyValue("ts", event.start);
        if (event.duration == 0) {
            w.keyValue("ph", "i").keyValue("s", "t");
        } else {
            w.keyValue("ph", "X").keyValue("dur", event.duration);
        }
        w.key("args").beginObject()
            .keyValue("addr", event.arg)
            .endObject()
            .endObject();
    }
    w.endArray();

    w.keyValue("displayTimeUnit", "ms");
    w.key("otherData").beginObject()
        .keyValue("schema_version", kTraceSchemaVersion)
        .keyValue("clock", "CPU cycles rendered as microseconds")
        .keyValue("events_recorded", recorded())
        .keyValue("events_dropped", dropped())
        .endObject();
    w.endObject();
    return w.str();
}

bool
EventTracer::writeChromeJson(const std::string &path) const
{
    const Status written = writeWholeFile(
        path, [this](std::ostream &out) { out << toChromeJson(); });
    if (!written.ok())
        warn("cannot write trace file: ", written.message());
    return written.ok();
}

namespace {

/** UATM_TRACE destination; empty when tracing is off. */
std::string &
globalTracePath()
{
    static std::string path;
    return path;
}

void
writeGlobalTraceAtExit()
{
    flushGlobalTrace();
}

EventTracer
makeGlobalTracer()
{
    std::size_t capacity = EventTracer::kDefaultCapacity;
    if (const char *env = std::getenv("UATM_TRACE_EVENTS")) {
        const long long parsed = std::atoll(env);
        if (parsed >= 1)
            capacity = static_cast<std::size_t>(parsed);
        else
            warn("ignoring invalid UATM_TRACE_EVENTS='", env, "'");
    }
    EventTracer tracer(capacity);
    if (const char *env = std::getenv("UATM_TRACE");
        env && *env) {
        globalTracePath() = env;
        tracer.setEnabled(true);
    }
    return tracer;
}

} // namespace

EventTracer &
globalTracer()
{
    static EventTracer tracer = makeGlobalTracer();
    // Registered only after the tracer's construction completes,
    // so the exit handler is sequenced before its destruction.
    static const bool armed = [] {
        if (!globalTracePath().empty())
            std::atexit(writeGlobalTraceAtExit);
        return true;
    }();
    (void)armed;
    return tracer;
}

void
flushGlobalTrace()
{
    const std::string &path = globalTracePath();
    if (path.empty())
        return;
    // One-shot: a wrapped ring means the written trace silently
    // starts mid-run, which is easy to misread as "the run began
    // here" — say so loudly, but only once per process however
    // many times the trace is flushed.
    static bool warnedDropped = false;
    if (globalTracer().dropped() > 0 && !warnedDropped) {
        warnedDropped = true;
        warn("trace ring overflowed: ", globalTracer().dropped(),
             " oldest events were dropped and the exported trace "
             "is truncated; raise UATM_TRACE_EVENTS (currently ",
             globalTracer().capacity(), ")");
    }
    if (globalTracer().writeChromeJson(path)) {
        inform("wrote Chrome trace (", globalTracer().size(),
               " events, ", globalTracer().dropped(),
               " dropped) to ", path);
    }
}

} // namespace uatm::obs
