/**
 * @file
 * Implementation of the shared benchmark scaffolding.
 */

#include "common.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <ostream>

#include "cpu/stall_feature.hh"
#include "obs/bench.hh"
#include "obs/flags.hh"
#include "obs/profile.hh"
#include "obs/registry.hh"
#include "obs/trace_event.hh"
#include "util/file.hh"
#include "util/logging.hh"

namespace uatm::bench {

BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    obs::Flags flags(std::filesystem::path(argv[0]).filename().string(),
                     "Run this binary's benchmarks.");
    flags.add("filter", args.filter,
              "only run benchmarks whose name contains it");
    flags.add("list", args.listOnly,
              "print the (filtered) names and exit");
    flags.add("reps", args.reps,
              "timed repetitions for the micro harness; 0 leaves its "
              "default",
              1);
    bool helped = false;
    okOrFatal(flags.parse(argc, argv, &helped));
    if (helped)
        std::exit(0);
    return args;
}

obs::Manifest &
manifest()
{
    static obs::Manifest instance;
    return instance;
}

void
banner(const std::string &experiment_id,
       const std::string &description)
{
    std::printf("\n============================================"
                "========================\n");
    std::printf("%s — %s\n", experiment_id.c_str(),
                description.c_str());
    std::printf("=============================================="
                "======================\n");
    manifest().setTool(experiment_id);
    manifest().set("run", "description", description);
}

void
section(const std::string &title)
{
    std::printf("\n--- %s ---\n", title.c_str());
}

void
emitTable(const TextTable &table)
{
    std::fputs(table.render().c_str(), stdout);
}

void
emitChart(const AsciiChart &chart)
{
    std::fputs(chart.render().c_str(), stdout);
}

void
recordMachine(const CacheConfig &cache,
              const MemoryConfig &memory,
              const WriteBufferConfig &wbuf, const CpuConfig &cpu)
{
    obs::Manifest &m = manifest();
    m.set("cache", "size_bytes", cache.sizeBytes);
    m.set("cache", "assoc",
          static_cast<std::uint64_t>(cache.assoc));
    m.set("cache", "line_bytes",
          static_cast<std::uint64_t>(cache.lineBytes));
    m.set("cache", "write_miss",
          writeMissPolicyName(cache.writeMiss));
    m.set("cache", "write", writePolicyName(cache.write));
    m.set("cache", "replacement",
          replacementKindName(cache.replacement));
    m.set("cache", "replacement_seed", cache.replacementSeed);
    m.set("cache", "describe", cache.describe());

    m.set("memory", "bus_width_bytes",
          static_cast<std::uint64_t>(memory.busWidthBytes));
    m.set("memory", "cycle_time", memory.cycleTime);
    m.set("memory", "pipelined", memory.pipelined);
    m.set("memory", "pipeline_interval", memory.pipelineInterval);
    m.set("memory", "describe", memory.describe());

    m.set("write_buffer", "depth",
          static_cast<std::uint64_t>(wbuf.depth));
    m.set("write_buffer", "read_bypass", wbuf.readBypass);

    m.set("cpu", "feature", stallFeatureName(cpu.feature));
    m.set("cpu", "mshrs", static_cast<std::uint64_t>(cpu.mshrs));
    m.set("cpu", "suppress_flush_traffic",
          cpu.suppressFlushTraffic);
    m.set("cpu", "prefetch", prefetchPolicyName(cpu.prefetch));
}

void
recordWorkload(const std::string &profile, std::uint64_t seed,
               std::uint64_t refs)
{
    obs::Manifest &m = manifest();
    m.set("workload", "profile", profile);
    m.set("workload", "seed", seed);
    m.set("workload", "refs", refs);
}

void
recordStats(const TimingStats &stats, Cycles mu_m)
{
    obs::StatRegistry registry;
    stats.registerStats(registry, "engine", mu_m);
    obs::ProfileRegistry::instance().registerStats(registry,
                                                   "profile");
    // Tracer health rides along in every stat dump so a trace
    // truncated by ring wraparound is visible without opening the
    // trace file itself.
    obs::globalTracer().registerStats(registry, "tracer");
    manifest().setStats(registry);
}

void
exportCsv(const std::string &name, const TextTable &table)
{
    const std::filesystem::path dir = obs::benchOutDir();
    const std::filesystem::path path =
        (dir / (name + ".csv")).lexically_normal();
    okOrFatal(writeWholeFile(path.string(), [&table](std::ostream &out) {
        out << table.renderCsv();
    }));
    std::printf("[csv] wrote %s\n", path.string().c_str());

    // The sibling manifest records what produced this CSV.
    const std::filesystem::path manifest_path =
        (dir / (name + ".manifest.json")).lexically_normal();
    obs::Manifest snapshot = manifest();
    snapshot.set("output", "csv", path.string());
    snapshot.set("output", "rows",
                 static_cast<std::uint64_t>(table.rows()));
    okOrFatal(snapshot.write(manifest_path.string()));
    std::printf("[manifest] wrote %s\n",
                manifest_path.string().c_str());
}

void
compareLine(const std::string &what, const std::string &paper,
            const std::string &measured, bool matches)
{
    std::printf("%-52s paper: %-18s ours: %-18s [%s]\n",
                what.c_str(), paper.c_str(), measured.c_str(),
                matches ? "ok" : "DIFFERS");
}

} // namespace uatm::bench
