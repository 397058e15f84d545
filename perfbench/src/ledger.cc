#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "workloads.hh"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>>
        metrics = {
            {"trace.gen_ns_per_ref", "ns"},
            {"trace.replay_ns_per_ref", "ns"},
            {"trace.share", "ratio"},
            {"cache.stack_sim_ns_per_ref", "ns"},
            {"cache.sim_ns_per_ref", "ns"},
            {"cache.fast_path_share", "ratio"},
            {"cache.share", "ratio"},
            {"cpu.engine_ns_per_ref", "ns"},
            {"cpu.share", "ratio"},
            {"core.ns_per_eval", "ns"},
            {"core.share", "ratio"},
            {"exp.dispatch_us_per_op", "us"},
            {"exp.share", "ratio"},
            {"exp.point_key_us", "us"},
            {"exp.ndjson_us_per_row", "us"},
            {"serve.parse_us", "us"},
            {"serve.cache_lookup_us", "us"},
            {"serve.cache_insert_us", "us"},
            {"serve.share", "ratio"},
            {"serve.hit_ratio", "ratio"},
            {"serve.daemon_ms", "ms"},
            {"serve.transport_ms", "ms"},
            {"loadgen.lag_ms_p99", "ms"},
            {"ledger.residual_share", "ratio"},
            {"ledger.tracing_overhead_share", "ratio"},
        };
    return metrics;
}

double
Ledger::residualShare() const
{
    return std::fabs(residual());
}

double
Ledger::self(const std::string &name) const
{
    const auto it = selfNs.find(name);
    return it == selfNs.end() ? 0.0 : it->second;
}

double
Ledger::duration(const std::string &name) const
{
    const auto it = durationNs.find(name);
    return it == durationNs.end() ? 0.0 : it->second;
}

double
Ledger::share(const std::string &name, double total_ns) const
{
    return total_ns > 0 ? self(name) / total_ns : 0.0;
}

Ledger
ledgerOf(const SpanRecorder &recorder, std::uint64_t first_op,
         std::uint64_t end_op)
{
    Ledger ledger;
    for (const auto &[op, spans] : recorder.byOperation()) {
        if (op < first_op || op >= end_op)
            continue;
        const std::vector<double> self = wallSelfNs(spans);
        std::map<std::int64_t, std::size_t> index;
        for (std::size_t i = 0; i < spans.size(); ++i)
            index[spans[i].id] = i;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &span = spans[i];
            ledger.selfNs[span.name] += self[i];
            ledger.durationNs[span.name] +=
                double(span.endNs - span.startNs);
            ++ledger.count[span.name];
            std::size_t root = i;
            for (auto it = index.find(spans[root].parent);
                 it != index.end();
                 it = index.find(spans[root].parent))
                root = it->second;
            if (std::string_view(spans[root].name) != "op")
                continue;
            if (root == i)
                ledger.rootNs += double(span.endNs - span.startNs);
            else
                ledger.layerNs += self[i];
        }
    }
    return ledger;
}

void
writeSpans(const SpanRecorder &spans, const std::string &path)
{
    if (!path.empty() && !spans.writeJson(path))
        throw std::runtime_error("cannot write spans to " + path);
}

void
printLedger(const std::string &title, const Ledger &ledger,
            double end_to_end_ns)
{
    std::printf("ledger %s: %-26s %12s %8s %8s\n", title.c_str(),
                "span", "self_ms", "calls", "share");
    for (const auto &[name, ns] : ledger.selfNs) {
        std::printf("ledger %s: %-26s %12.3f %8zu %8.4f\n",
                    title.c_str(), name.c_str(), ns / 1e6,
                    ledger.count.at(name),
                    end_to_end_ns > 0 ? ns / end_to_end_ns : 0.0);
    }
    std::printf("ledger %s: layers %.3f ms, untraced operations "
                "%.3f ms, traced roots %.3f ms, residual %+.4f "
                "(tolerance %.2f), tracing overhead %+.4f\n",
                title.c_str(), ledger.layerNs / 1e6,
                ledger.opNs / 1e6, ledger.rootNs / 1e6,
                ledger.residual(), kLedgerTolerance,
                ledger.tracingOverheadShare());
}

void
SetupSamples::report(WorkloadResult &result) const
{
    if (seconds_.empty())
        throw std::runtime_error("no set-up repetition ran");
    result.add("setup_s", median(seconds_), "s");
    const std::array<double, 3> q = quartiles(seconds_);
    result.note("setup_samples", std::to_string(seconds_.size()));
    result.note("setup_ms_q1", std::to_string(q[0] * 1e3));
    result.note("setup_ms_q3", std::to_string(q[2] * 1e3));
}

void
reportLayers(WorkloadResult &result,
             std::map<std::string, double> values,
             double residual_share, double overhead_share)
{
    values["ledger.residual_share"] = residual_share;
    values["ledger.tracing_overhead_share"] = overhead_share;
    for (const auto &[name, unit] : layerMetrics()) {
        const auto it = values.find(name);
        result.add(name, it == values.end() ? 0.0 : it->second,
                   unit);
    }
    if (!(residual_share <= kLedgerTolerance)) {
        std::printf("LEDGER CHECK FAILED: residual share %.4f "
                    "exceeds tolerance %.2f\n",
                    residual_share, kLedgerTolerance);
        result.correct = false;
    }
}

} // namespace perfbench
