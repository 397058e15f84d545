/**
 * @file
 * Microbenchmarks for the simulation substrate itself, on the
 * obs::BenchSuite harness: reference generation, reading a binary
 * trace file, functional cache access, the stack-sim pass, the
 * cache-size sweep, the write-buffer drain loop, the equivalence
 * solver, and the full timing engine per stalling feature.  These
 * guard the usability of the harness (Figures 1 and 3-5 re-simulate
 * the six profiles at many operating points) and feed the
 * continuous-benchmark pipeline: every run writes
 * BENCH_sim_throughput.json for tools/perf_diff to gate and
 * tools/plot_figures.py --bench to trend.
 *
 *   bench_sim_throughput [--filter=<substr>] [--list] [--reps=<n>]
 */

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/stack_sim.hh"
#include "common.hh"
#include "core/equivalence.hh"
#include "cpu/timing_engine.hh"
#include "exp/scenarios.hh"
#include "memory/write_buffer.hh"
#include "obs/bench.hh"
#include "trace/generators.hh"
#include "trace/io.hh"
#include "trace/reuse_distance.hh"
#include "trace/ycsb.hh"

namespace uatm {
namespace {

constexpr std::uint64_t kGenBatch = 1u << 16;
constexpr std::uint64_t kAccessBatch = 1u << 16;
constexpr std::uint64_t kEngineRefs = 10000;
/** The length of each trace engine_replay captures. */
constexpr std::uint64_t kReadRefs = 40000;
/** The stack-sim rows' stream: a little over one offline_sweep
 *  pass (20k refs, its 2k-ref warm-up included). */
constexpr std::uint64_t kStackSimRefs = 22000;

/** A row timing kGenBatch references of @p source's stream, pulled
 *  as every consumer pulls them: fillBatch through BatchPump. */
void
addGeneratorRow(obs::BenchSuite &suite, const std::string &name,
                std::shared_ptr<TraceSource> source)
{
    suite.add(name, [source](obs::BenchState &state) {
        state.setItems(kGenBatch);
        BatchPump(*source).pumpTo(
            kGenBatch, [](const MemoryReference *refs, std::size_t) {
                obs::doNotOptimize(refs);
            });
    });
}

void
registerGeneratorBenchmarks(obs::BenchSuite &suite)
{
    addGeneratorRow(suite, "gen/working_set",
                    std::make_shared<WorkingSetGenerator>(
                        WorkingSetGenerator::Config{}, Rng(1)));
    addGeneratorRow(suite, "gen/spec92_nasa7",
                    Spec92Profile::make("nasa7", 1));

    YcsbWorkload::Config ycsb_config;
    ycsb_config.records = 100000;
    addGeneratorRow(suite, "gen/ycsb_a",
                    std::make_shared<YcsbWorkload>(ycsb_config, Rng(1)));

    ReuseDistanceWorkload::Config reuse_config;
    reuse_config.profile = ReuseProfile::geometric(256, 0.95, 0.02);
    addGeneratorRow(suite, "gen/reuse_dist",
                    std::make_shared<ReuseDistanceWorkload>(
                        reuse_config, Rng(1)));
}

/** A binary trace file that lives as long as the rows reading it. */
class TempTraceFile
{
  public:
    explicit TempTraceFile(const Trace &trace)
        : path_((std::filesystem::temp_directory_path() /
                 ("uatm_bench_" + std::to_string(::getpid()) + ".trc"))
                    .string())
    {
        okOrFatal(BinaryTraceFormat::writeFile(trace, path_));
    }
    ~TempTraceFile() { std::remove(path_.c_str()); }
    TempTraceFile(const TempTraceFile &) = delete;
    TempTraceFile &operator=(const TempTraceFile &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

void
registerTraceReadBenchmark(obs::BenchSuite &suite)
{
    auto file = std::make_shared<TempTraceFile>(
        Trace(Spec92Profile::make("doduc", 3)->drain(kReadRefs)));
    suite.add("trace/read/binary", [file](obs::BenchState &state) {
        state.setItems(kReadRefs);
        const Trace trace =
            valueOrFatal(BinaryTraceFormat::readFile(file->path()));
        obs::doNotOptimize(trace.size());
    });
}

void
registerCacheBenchmarks(obs::BenchSuite &suite)
{
    // The access rows time SetAssocCache::access alone: the stream
    // is generated once, here, and every rep replays it.
    auto trace = std::make_shared<std::vector<MemoryReference>>(
        WorkingSetGenerator(WorkingSetGenerator::Config{}, Rng(7))
            .drain(kAccessBatch));

    for (std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
        CacheConfig config;
        config.sizeBytes = 8 * 1024;
        config.assoc = assoc;
        config.lineBytes = 32;

        // The cache persists across reps so the stat-snapshot delta
        // covers exactly the timed reps.
        auto cache = std::make_shared<SetAssocCache>(config);

        const std::string name =
            "cache/access/assoc=" + std::to_string(assoc);
        suite.add(name, [cache, trace,
                         line = config.lineBytes](
                            obs::BenchState &state) {
            state.setItems(trace->size());
            state.setStatsProvider(
                [cache, line](obs::StatRegistry &registry) {
                    cache->stats().registerStats(registry,
                                                 "cache", line);
                });
            for (const MemoryReference &ref : *trace) {
                auto outcome = cache->access(ref);
                obs::doNotOptimize(outcome);
            }
        });
    }

    // The stack-sim rows time StackSimulator::accessBatch alone on
    // offline_sweep's size grid (4-512 KiB, 2-way, 32-byte lines):
    // the stream is generated once, here, and every rep replays it
    // through a fresh simulator, as runStackSim builds one per pass.
    auto sweep_trace = std::make_shared<std::vector<MemoryReference>>(
        Spec92Profile::make("nasa7", 9)->drain(kStackSimRefs));
    for (WritePolicy write :
         {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
        GeometryGrid grid;
        grid.write = write;
        for (std::uint64_t kib = 4; kib <= 512; kib *= 2) {
            CacheConfig config;
            config.sizeBytes = kib * 1024;
            config.assoc = 2;
            config.lineBytes = 32;
            config.write = write;
            grid.addConfig(config);
        }
        // Summed across reps for the stat delta.
        auto visits = std::make_shared<std::uint64_t>(0);

        const std::string name =
            std::string("cache/stack_sim/") +
            (write == WritePolicy::WriteBack ? "wb" : "wt");
        suite.add(name, [sweep_trace, grid,
                         visits](obs::BenchState &state) {
            state.setItems(sweep_trace->size());
            state.setStatsProvider(
                [visits](obs::StatRegistry &registry) {
                    registry.addScalar(
                        "stack_sim.space_visits",
                        static_cast<double>(*visits),
                        "set counts the references entered",
                        "count");
                });
            StackSimulator sim(grid);
            sim.accessBatch(sweep_trace->data(), sweep_trace->size());
            *visits += sim.spaceVisits();
        });
    }

    suite.add("cache/sweep_size", [](obs::BenchState &state) {
        exp::GeometrySweep spec;
        spec.base.assoc = 2;
        spec.base.lineBytes = 32;
        spec.workload = exp::WorkloadSpec::spec92("nasa7", 11);
        spec.values = {4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024};
        spec.refs = 20000;
        exp::Runner runner;
        state.setItems(spec.values.size() * spec.refs);
        auto table = exp::runGeometrySweep(spec, runner);
        obs::doNotOptimize(table);
    });
}

void
registerWriteBufferBenchmark(obs::BenchSuite &suite)
{
    struct DrainRig
    {
        MemoryTiming timing{MemoryConfig{}};
        MemoryScheduler scheduler{timing,
                                  WriteBufferConfig{8, true}};
        Cycles now = 0;
    };
    auto rig = std::make_shared<DrainRig>();

    suite.add("wbuf/drain", [rig](obs::BenchState &state) {
        constexpr std::uint64_t kWrites = 4096;
        state.setItems(kWrites);
        state.setStatsProvider(
            [rig](obs::StatRegistry &registry) {
                rig->scheduler.registerStats(registry, "wbuf");
            });
        const Cycles mu = rig->timing.config().cycleTime;
        for (std::uint64_t i = 0; i < kWrites; ++i) {
            // Writes arrive slightly faster than the port drains
            // them, exercising both the queue and the full-buffer
            // backpressure path.
            rig->now += mu / 2 + 1;
            const Cycles resume =
                rig->scheduler.postWrite(rig->now, 32);
            obs::doNotOptimize(resume);
            rig->scheduler.drainTo(rig->now + mu);
        }
        rig->now = rig->scheduler.drainAllAfter(rig->now);
    });
}

void
registerEquivalenceBenchmark(obs::BenchSuite &suite)
{
    suite.add("core/equivalence", [](obs::BenchState &state) {
        constexpr int kSolves = 512;
        state.setItems(kSolves);
        for (int i = 0; i < kSolves; ++i) {
            DesignPoint base;
            base.hitRatio = 0.90 + 0.0001 * (i % 800);
            const DesignPoint improved =
                equivalentDoubleBusDesign(base, 0.5);
            obs::doNotOptimize(improved.hitRatio);
        }
    });
}

void
registerEngineBenchmarks(obs::BenchSuite &suite)
{
    const StallFeature features[] = {
        StallFeature::FS, StallFeature::BL, StallFeature::BNL1,
        StallFeature::BNL3, StallFeature::NB};
    for (StallFeature feature : features) {
        CacheConfig cache;
        cache.sizeBytes = 8 * 1024;
        cache.assoc = 2;
        cache.lineBytes = 32;
        MemoryConfig mem;
        mem.busWidthBytes = 4;
        mem.cycleTime = 8;
        CpuConfig cpu;
        cpu.feature = feature;

        // The stream is drained once, here, so the rows time the
        // engine and not the generator.
        struct EngineRig
        {
            EngineRig(const CacheConfig &cache,
                      const MemoryConfig &mem,
                      const CpuConfig &cpu)
                : engine(cache, mem, WriteBufferConfig{8, true},
                         cpu),
                  workload(Spec92Profile::make("doduc", 3)->drain(
                      kEngineRefs))
            {}

            TimingEngine engine;
            Trace workload;
            /** Work summed across reps for the stat delta. */
            TimingStats total;
        };
        auto rig = std::make_shared<EngineRig>(cache, mem, cpu);

        const std::string name = std::string("engine/step/") +
                                 stallFeatureName(feature);
        suite.add(name, [rig](obs::BenchState &state) {
            state.setItems(kEngineRefs);
            state.setStatsProvider(
                [rig](obs::StatRegistry &registry) {
                    rig->total.registerStats(registry, "engine");
                });

            const TimingStats stats =
                rig->engine.run(rig->workload, kEngineRefs);
            obs::doNotOptimize(stats.cycles);

            TimingStats &total = rig->total;
            total.cycles += stats.cycles;
            total.instructions += stats.instructions;
            total.references += stats.references;
            total.fills += stats.fills;
            total.writeArounds += stats.writeArounds;
            total.initialMissWait += stats.initialMissWait;
            total.inflightAccessStall +=
                stats.inflightAccessStall;
            total.missSerializationStall +=
                stats.missSerializationStall;
            total.flushStall += stats.flushStall;
            total.writeStall += stats.writeStall;
            total.bufferFullStall += stats.bufferFullStall;
            total.portContentionWait += stats.portContentionWait;
            total.prefetchesIssued += stats.prefetchesIssued;
            total.prefetchesUseful += stats.prefetchesUseful;
            total.prefetchesLate += stats.prefetchesLate;
        });
    }
}

} // namespace
} // namespace uatm

int
main(int argc, char **argv)
{
    using namespace uatm;

    const bench::BenchArgs args = bench::parseArgs(argc, argv);

    obs::BenchSuite suite("sim_throughput");
    registerGeneratorBenchmarks(suite);
    registerTraceReadBenchmark(suite);
    registerCacheBenchmarks(suite);
    registerWriteBufferBenchmark(suite);
    registerEquivalenceBenchmark(suite);
    registerEngineBenchmarks(suite);

    obs::BenchSuite::RunOptions options;
    options.filter = args.filter;
    options.listOnly = args.listOnly;
    options.reps = args.reps;

    if (!options.listOnly) {
        std::printf("sim_throughput microbenchmarks (%zu "
                    "registered)\n",
                    suite.size());
    }
    valueOrFatal(suite.run(options));
    return 0;
}
