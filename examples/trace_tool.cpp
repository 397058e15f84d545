/**
 * @file
 * Trace utility: generate a synthetic workload from any registered
 * workload method (SPEC92-like profiles, YCSB mixes, reuse-distance
 * synthesis, Short&Levy, optionally with an interleaved IFetch
 * stream), save it in the text or binary format, inspect a saved
 * trace, replay one through a cache and report the paper's workload
 * parameters {E, R, W, alpha}, or measure a saved trace's
 * reuse-distance profile as JSON (feed it back through
 * --workload reuse-dist:hist=<file>).
 *
 * Examples:
 *   trace_tool --list-workloads
 *   trace_tool --describe ycsb
 *   trace_tool --mode generate --workload ycsb-a:records=100000 \
 *              --refs 50000 --out ycsb.trc --format binary
 *   trace_tool --mode inspect --in ycsb.trc --format binary
 *   trace_tool --mode replay --in ycsb.trc --format binary \
 *              --cache-kb 8 --line 32
 *   trace_tool --mode reuse-profile --in ycsb.trc --format binary \
 *              --out ycsb_reuse.json
 */

#include <cstdio>
#include <memory>
#include <ostream>
#include <string>

#include "cache/cache.hh"
#include "core/workload.hh"
#include "example_cli.hh"
#include "exp/workload_registry.hh"
#include "exp/workload_spec.hh"
#include "trace/io.hh"
#include "trace/reuse_distance.hh"
#include "trace/trace_stats.hh"
#include "util/file.hh"
#include "util/logging.hh"
#include "util/status.hh"

using namespace uatm;

namespace {

Trace
loadTrace(const std::string &path, const std::string &format)
{
    if (format == "binary")
        return valueOrFatal(BinaryTraceFormat::readFile(path));
    if (format == "text")
        return valueOrFatal(TextTraceFormat::readFile(path));
    fatal("unknown trace format '", format,
          "' (expected text or binary)");
}

void
saveTrace(const Trace &trace, const std::string &path,
          const std::string &format)
{
    if (format == "binary")
        okOrFatal(BinaryTraceFormat::writeFile(trace, path));
    else if (format == "text")
        okOrFatal(TextTraceFormat::writeFile(trace, path));
    else
        fatal("unknown trace format '", format, "'");
}

/** --list-workloads: one "name - doc" line per registered method. */
void
listWorkloads()
{
    const auto &registry = exp::WorkloadRegistry::instance();
    for (const auto &name : registry.names()) {
        const auto *method = registry.find(name);
        std::printf("%-12s %s\n", name.c_str(),
                    method ? method->doc.c_str() : "");
    }
}

} // namespace

int
run(int argc, char **argv)
{
    std::string mode = "generate";
    examples::WorkloadCli workload{"nasa7", 1};
    std::uint64_t refs = 50000;
    bool ifetch = false;
    std::string out = "trace.trc";
    std::string in = "trace.trc";
    std::string format = "binary";
    std::uint64_t cache_kb = 8;
    CacheConfig config;
    config.assoc = 2;
    config.lineBytes = 32;
    std::size_t depth = 256;
    bool list_workloads = false;
    std::string describe;
    obs::Flags flags("trace_tool",
                     "Generate, inspect and replay uatm memory traces.");
    flags.add("mode", mode,
              "generate | inspect | replay | reuse-profile");
    workload.bind(flags);
    flags.add("refs", refs, "references to generate");
    flags.add("ifetch", ifetch,
              "interleave instruction fetches (generate)");
    flags.add("out", out, "output path (generate/reuse-profile)");
    flags.add("in", in, "input path (inspect/replay/reuse-profile)");
    flags.add("format", format, "text | binary");
    flags.add("cache-kb", cache_kb, "cache capacity (replay)", 0,
              examples::kMaxCacheKb);
    flags.add("assoc", config.assoc, "associativity (replay)");
    flags.add("line", config.lineBytes,
              "line size (replay/reuse-profile)");
    flags.add("depth", depth, "maximum stack depth (reuse-profile)");
    flags.add("list-workloads", list_workloads,
              "list the registered workload methods and exit");
    flags.add("describe", describe,
              "print a workload method's parameters and exit");
    if (!examples::parseFlags(flags, argc, argv))
        return 0;

    if (list_workloads) {
        listWorkloads();
        return 0;
    }
    if (!describe.empty()) {
        std::fputs(valueOrFatal(
                       exp::WorkloadRegistry::instance().describe(describe))
                       .c_str(),
                   stdout);
        std::fputc('\n', stdout);
        return 0;
    }

    if (mode == "generate") {
        exp::WorkloadSpec spec = workload.spec();
        spec.withIFetch = ifetch;
        auto source = valueOrFatal(spec.make());
        Trace trace;
        BatchPump(*source).pumpTo(
            refs, [&](const MemoryReference *batch, std::size_t n) {
                for (std::size_t i = 0; i < n; ++i)
                    trace.append(batch[i]);
            });
        saveTrace(trace, out, format);
        std::printf("wrote %zu references (%llu instructions) to "
                    "%s\n",
                    trace.size(),
                    static_cast<unsigned long long>(
                        trace.instructionCount()),
                    out.c_str());
        return 0;
    }

    if (mode == "inspect") {
        Trace trace = loadTrace(in, format);
        WorkloadProfile profile(32);
        for (const MemoryReference &ref : trace.refs())
            profile.add(ref);
        std::fputs(profile.format(in).c_str(), stdout);
        std::printf("  ifetch refs      = %llu\n",
                    static_cast<unsigned long long>(
                        trace.countKind(RefKind::IFetch)));
        return 0;
    }

    if (mode == "replay") {
        Trace trace = loadTrace(in, format);
        config.sizeBytes = cache_kb * 1024;
        SetAssocCache cache(config);
        // Compulsory misses are the stream's distinct lines: the
        // footprint at the cache's line size.
        WorkloadProfile profile(config.lineBytes);
        for (const MemoryReference &ref : trace.refs()) {
            cache.access(ref);
            profile.add(ref);
        }

        std::printf("cache: %s\n%s",
                    config.describe().c_str(),
                    cache.stats().format(config.lineBytes).c_str());
        std::printf("  compulsory   = %llu (distinct %uB lines)\n",
                    static_cast<unsigned long long>(
                        profile.footprintBlocks()),
                    config.lineBytes);
        const Workload w = Workload::fromCacheRun(
            cache.stats(), config.lineBytes);
        std::printf("paper parameters: %s\n",
                    w.describe(config.lineBytes).c_str());
        return 0;
    }

    if (mode == "reuse-profile") {
        Trace trace = loadTrace(in, format);
        const auto profile = valueOrFatal(ReuseProfile::measure(
            trace, trace.size(), config.lineBytes, depth));
        const std::string json = profile.toJsonText();
        // generate's default --out is a .trc path; route the JSON
        // to stdout unless the user chose a destination.
        if (out.empty() || out == "trace.trc") {
            std::printf("%s\n", json.c_str());
        } else {
            okOrFatal(writeWholeFile(out, [&json](std::ostream &file) {
                file << json << '\n';
            }));
            std::printf("wrote reuse-distance profile (depth %zu) "
                        "to %s\n",
                        profile.weights.size(), out.c_str());
        }
        return 0;
    }

    fatal("unknown mode '", mode,
          "' (expected generate, inspect, replay or "
          "reuse-profile)");
}

int
main(int argc, char **argv)
{
    return guardedMain(
        [&] { return run(argc, argv); });
}
