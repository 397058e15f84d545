/**
 * @file
 * Line-size advisor (Sec. 5.4): given the physical memory timing
 * (latency + per-byte transfer time, as in Figure 6's "Delay =
 * 360ns + 15ns/byte") and a workload, measure the miss ratio per
 * candidate line size with the cache simulator and recommend the
 * line size that minimises mean memory delay — showing that the
 * tradeoff criterion (Eq. 19) and Smith's criterion (Eq. 16)
 * agree, plus the range of bus speeds where the choice holds.
 *
 * The per-line simulations are independent, so they shard across
 * --threads workers through the scenario runner.
 *
 * Example:
 *   ./build/examples/linesize_advisor --cache-kb 16 \
 *       --latency-ns 360 --ns-per-byte 15 --cycle-ns 60 --bus 8 \
 *       --threads 4
 */

#include <cstdio>
#include <string>

#include "exp/scenarios.hh"

#include "example_cli.hh"

using namespace uatm;

static int
run(int argc, char **argv)
{
    exp::LineTradeoff spec;
    spec.refs = 150000;
    std::uint64_t cache_kb = 16;
    double latency_ns = 360.0;
    double ns_per_byte = 15.0;
    double cycle_ns = 60.0;
    std::uint32_t bus = 8;
    examples::WorkloadCli workload{"nasa7", 11};
    examples::RunnerCli cli;
    obs::Flags flags(
        "linesize_advisor",
        "Recommend a cache line size from measured miss ratios "
        "and the memory's delay function.");
    workload.bind(flags);
    flags.add("cache-kb", cache_kb, "cache capacity in KB", 0,
              examples::kMaxCacheKb);
    flags.add("latency-ns", latency_ns, "memory access latency");
    flags.add("ns-per-byte", ns_per_byte, "transfer time per byte");
    flags.add("cycle-ns", cycle_ns, "CPU cycle time");
    flags.add("bus", bus, "bus width in bytes");
    flags.add("refs", spec.refs, "references to simulate", 1);
    cli.bind(flags);
    if (!cli.parse(flags, argc, argv))
        return 0;

    spec.delay = LineDelayModel::fromNanoseconds(latency_ns, ns_per_byte,
                                                 cycle_ns, bus);
    if (cli.narrate())
        std::printf("delay model: %s\n\n",
                    spec.delay.describe().c_str());

    // Measure MR(L) for the candidate lines with the simulator.
    spec.base.sizeBytes = cache_kb * 1024;
    spec.base.assoc = 2;
    spec.workload = workload.spec();
    spec.lineSizes = {8, 16, 32, 64, 128};
    spec.baseLine = 8;
    spec.warmupRefs = spec.refs / 10;

    exp::Runner runner = cli.makeRunner();
    const auto result = exp::runLineTradeoff(spec, runner);
    cli.emit(result.table);

    if (!cli.narrate())
        return 0;

    std::printf("\nrecommended line size: %u bytes "
                "(Smith's criterion picks %u — Sec. 5.4 proves "
                "the two always agree)\n",
                result.recommended, result.smith);

    if (result.recommended != spec.baseLine) {
        if (const auto range = beneficialBetaRange(
                result.missRatios, spec.delay, spec.baseLine,
                result.recommended, 0.25, 16.0)) {
            std::printf("the %uB line stays beneficial for "
                        "normalised bus speeds beta in "
                        "[%.2f, %.2f] (yours: %.2f)\n",
                        result.recommended, range->first,
                        range->second, spec.delay.beta);
        }
    } else {
        std::printf("no larger line pays for itself at this bus "
                    "speed (Sec. 5.4.2: the bus is too slow for "
                    "a larger line's higher hit ratio to win)\n");
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain(
        [&] { return run(argc, argv); });
}
