#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

#include "obs/json.hh"

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
SpanRecorder::add(const Span &span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::map<std::uint64_t, std::vector<Span>>
SpanRecorder::byOperation() const
{
    std::map<std::uint64_t, std::vector<Span>> ops;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &span : spans_)
        ops[span.op].push_back(span);
    return ops;
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    uatm::obs::JsonWriter w;
    w.beginObject();
    w.key("spans");
    w.beginArray();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Span &span : spans_) {
            w.beginObject();
            w.keyValue("name", span.name);
            w.keyValue("op", span.op);
            w.keyValue("id", span.id);
            w.keyValue("parent", span.parent);
            w.keyValue("start_ns", span.startNs);
            w.keyValue("end_ns", span.endNs);
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    std::ofstream out(path, std::ios::trunc);
    out << w.str() << "\n";
    return bool(out);
}

ScopedSpan::ScopedSpan(SpanRecorder &recorder, const char *name,
                       std::uint64_t op, std::int64_t parent)
    : recorder_(recorder)
{
    span_.name = name;
    span_.op = op;
    span_.id = recorder.nextId();
    span_.parent = parent;
    span_.startNs = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    span_.endNs = nowNs();
    recorder_.add(span_);
}

std::vector<double>
wallSelfNs(const std::vector<Span> &spans)
{
    const std::size_t n = spans.size();
    std::unordered_map<std::int64_t, std::size_t> index;
    for (std::size_t i = 0; i < n; ++i)
        index[spans[i].id] = i;
    std::vector<long> parentOf(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = index.find(spans[i].parent);
        if (it != index.end())
            parentOf[i] = long(it->second);
    }

    std::vector<std::int64_t> times;
    times.reserve(2 * n);
    for (const Span &span : spans) {
        times.push_back(span.startNs);
        times.push_back(span.endNs);
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());

    std::vector<double> self(n, 0.0);
    std::vector<char> open(n), busyBelow(n);
    for (std::size_t t = 0; t + 1 < times.size(); ++t) {
        const std::int64_t lo = times[t], hi = times[t + 1];
        for (std::size_t i = 0; i < n; ++i) {
            open[i] = spans[i].startNs <= lo && spans[i].endNs >= hi;
            busyBelow[i] = 0;
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (!open[i])
                continue;
            for (long p = parentOf[i]; p >= 0 && !busyBelow[p];
                 p = parentOf[std::size_t(p)])
                busyBelow[std::size_t(p)] = 1;
        }
        std::size_t running = 0;
        for (std::size_t i = 0; i < n; ++i)
            running += open[i] && !busyBelow[i];
        if (running == 0)
            continue;
        const double share = double(hi - lo) / double(running);
        for (std::size_t i = 0; i < n; ++i) {
            if (open[i] && !busyBelow[i])
                self[i] += share;
        }
    }
    return self;
}

} // namespace perfbench
