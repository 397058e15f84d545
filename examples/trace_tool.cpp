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
#include "util/options.hh"
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
    OptionParser options(
        "trace_tool",
        "Generate, inspect and replay uatm memory traces.");
    options.addString("mode", "generate",
                      "generate | inspect | replay | reuse-profile");
    examples::addWorkloadOptions(options, "nasa7", 1);
    options.addInt("refs", 50000, "references to generate");
    options.addFlag("ifetch",
                    "interleave instruction fetches (generate)");
    options.addString("out", "trace.trc",
                      "output path (generate/reuse-profile)");
    options.addString("in", "trace.trc",
                      "input path (inspect/replay/reuse-profile)");
    options.addString("format", "binary", "text | binary");
    options.addInt("cache-kb", 8, "cache capacity (replay)");
    options.addInt("assoc", 2, "associativity (replay)");
    options.addInt("line", 32, "line size (replay/reuse-profile)");
    options.addInt("depth", 256,
                   "maximum stack depth (reuse-profile)");
    options.addFlag("list-workloads",
                    "list the registered workload methods and exit");
    options.addString("describe", "",
                      "print a workload method's parameters and "
                      "exit");
    if (!options.parse(argc, argv))
        return 0;

    if (options.getFlag("list-workloads")) {
        listWorkloads();
        return 0;
    }
    if (!options.getString("describe").empty()) {
        std::fputs(
            valueOrFatal(exp::WorkloadRegistry::instance().describe(
                             options.getString("describe")))
                .c_str(),
            stdout);
        std::fputc('\n', stdout);
        return 0;
    }

    const std::string mode = options.getString("mode");
    const std::string format = options.getString("format");

    if (mode == "generate") {
        exp::WorkloadSpec spec =
            examples::parseWorkloadOptions(options);
        spec.withIFetch = options.getFlag("ifetch");
        auto source = valueOrFatal(spec.make());
        Trace trace;
        const auto refs =
            static_cast<std::uint64_t>(options.getInt("refs"));
        for (std::uint64_t i = 0; i < refs; ++i) {
            auto ref = source->next();
            if (!ref)
                break;
            trace.append(*ref);
        }
        saveTrace(trace, options.getString("out"), format);
        std::printf("wrote %zu references (%llu instructions) to "
                    "%s\n",
                    trace.size(),
                    static_cast<unsigned long long>(
                        trace.instructionCount()),
                    options.getString("out").c_str());
        return 0;
    }

    if (mode == "inspect") {
        Trace trace = loadTrace(options.getString("in"), format);
        WorkloadProfile profile(32);
        trace.reset();
        while (auto ref = trace.next())
            profile.add(*ref);
        std::fputs(
            profile.format(options.getString("in")).c_str(),
            stdout);
        std::printf("  ifetch refs      = %llu\n",
                    static_cast<unsigned long long>(
                        trace.countKind(RefKind::IFetch)));
        return 0;
    }

    if (mode == "replay") {
        Trace trace = loadTrace(options.getString("in"), format);
        CacheConfig config;
        config.sizeBytes =
            static_cast<std::uint64_t>(options.getInt("cache-kb")) *
            1024;
        config.assoc =
            static_cast<std::uint32_t>(options.getInt("assoc"));
        config.lineBytes =
            static_cast<std::uint32_t>(options.getInt("line"));
        SetAssocCache cache(config);
        // Compulsory misses are the stream's distinct lines: the
        // footprint at the cache's line size.
        WorkloadProfile profile(config.lineBytes);
        trace.reset();
        while (auto ref = trace.next()) {
            cache.access(*ref);
            profile.add(*ref);
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
        Trace trace = loadTrace(options.getString("in"), format);
        const auto profile = valueOrFatal(ReuseProfile::measure(
            trace, trace.size(),
            static_cast<std::uint32_t>(options.getInt("line")),
            static_cast<std::size_t>(options.getInt("depth"))));
        const std::string json = profile.toJsonText();
        const std::string out = options.getString("out");
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
    return examples::guardedMain(
        [&] { return run(argc, argv); });
}
