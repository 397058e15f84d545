/**
 * @file
 * Ablation — the instruction-fetch term of Sec. 3.4.  Measures
 * R_I with a simulated instruction cache over the synthetic fetch
 * streams (single-program vs multiprogramming-like control flow)
 * and quantifies when the (R_I/L) phi_I mu_m term matters to the
 * CPU execution time, reproducing the paper's argument that it is
 * negligible at typical I-cache hit ratios.
 */

#include <cstdio>

#include "cache/cache.hh"
#include "common.hh"
#include "core/execution_time.hh"
#include "trace/ifetch.hh"

using namespace uatm;

namespace {

struct IcacheRun
{
    double hitRatio;
    double bytesRead;
    std::uint64_t fetches;
};

IcacheRun
runIcache(double loop_back, std::uint64_t fetches)
{
    IFetchConfig config;
    config.loopBackProbability = loop_back;
    IFetchGenerator gen(config, Rng(77));
    CacheConfig icache;
    icache.sizeBytes = 8 * 1024;
    icache.assoc = 2;
    icache.lineBytes = 32;
    SetAssocCache cache(icache);
    for (std::uint64_t i = 0; i < fetches; ++i)
        cache.access(*gen.next());
    return IcacheRun{
        cache.stats().hitRatio(),
        static_cast<double>(cache.stats().bytesRead(32)),
        fetches};
}

} // namespace

int
main()
{
    bench::banner("Ablation: instruction fetch",
                  "Sec. 3.4 — when does the (R_I/L) phi mu_m "
                  "term matter? (8KB I-cache, D = 4, mu_m = 8)");

    Machine machine;
    machine.busWidth = 4;
    machine.lineBytes = 32;
    machine.cycleTime = 8;

    bench::section("I-fetch burden vs control-flow locality");
    TextTable table({"loop-back P", "I-hit ratio %",
                     "X data-only", "X with I-term",
                     "I-term share %"});
    const std::uint64_t fetches = 200000;
    double share_high_locality = 1.0;
    double share_low_locality = 0.0;
    for (double loop_back : {0.999, 0.99, 0.95, 0.85, 0.70}) {
        const IcacheRun run = runIcache(loop_back, fetches);

        // A matching data workload: E = fetches, typical density.
        Workload w = Workload::fromHitRatio(
            static_cast<double>(run.fetches),
            0.3 * static_cast<double>(run.fetches), 0.95, 32,
            0.5);
        w.instrBytesRead = run.bytesRead;

        const double x_data = executionTimeFS(w, machine);
        ExecutionModelOptions with;
        with.includeInstructionFetch = true;
        const double x_full = executionTimeFS(w, machine, with);
        const double share = (x_full - x_data) / x_full * 100.0;
        if (loop_back == 0.999)
            share_high_locality = share;
        if (loop_back == 0.70)
            share_low_locality = share;
        table.addRow({TextTable::num(loop_back, 3),
                      TextTable::num(run.hitRatio * 100, 2),
                      TextTable::num(x_data, 0),
                      TextTable::num(x_full, 0),
                      TextTable::num(share, 2)});
    }
    bench::emitTable(table);
    bench::exportCsv("ablation_icache", table);

    bench::section("paper-vs-measured");
    bench::compareLine(
        "I-term negligible at high I-cache hit ratios",
        "small (Sec. 3.4)",
        TextTable::num(share_high_locality, 2) + " % of X",
        share_high_locality < 3.0);
    bench::compareLine(
        "multiprogramming regime makes it significant",
        "cannot be neglected",
        TextTable::num(share_low_locality, 2) + " % of X",
        share_low_locality > 8.0);
    return 0;
}
