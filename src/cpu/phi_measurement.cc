/**
 * @file
 * Implementation of the phi measurement harness.
 */

#include "cpu/phi_measurement.hh"

#include "trace/generators.hh"

namespace uatm {

PhiExperiment::PhiExperiment()
{
    // Figure 1's cache: 8 Kbytes, two-way set associative,
    // write-allocate (the paper's Eq. 8 assumes write-allocate).
    cache.sizeBytes = 8 * 1024;
    cache.assoc = 2;
    cache.lineBytes = 32;
    cache.writeMiss = WriteMissPolicy::WriteAllocate;
    cache.write = WritePolicy::WriteBack;
    cache.replacement = ReplacementKind::LRU;
}

PhiResult
measurePhi(const PhiExperiment &experiment,
           const std::string &profile_name)
{
    MemoryConfig memory;
    memory.busWidthBytes = experiment.busWidthBytes;
    memory.cycleTime = experiment.cycleTime;

    // Phi isolates the read-miss stall component (Eq. 8 has no
    // flush term), so dirty-victim traffic is suppressed entirely;
    // the paper's Figure 1 likewise reports pure read-miss
    // stalling.
    WriteBufferConfig wbuf;
    wbuf.depth = 64;
    wbuf.readBypass = true;

    CpuConfig cpu;
    cpu.feature = experiment.feature;
    cpu.suppressFlushTraffic = true;

    TimingEngine engine(experiment.cache, memory, wbuf, cpu);
    auto workload = Spec92Profile::make(profile_name,
                                        experiment.seed);

    PhiResult result;
    result.workload = profile_name;
    result.timing = engine.run(*workload, experiment.refs);
    result.phi = result.timing.phi(experiment.cycleTime);
    const double full =
        static_cast<double>(experiment.cache.lineBytes) /
        static_cast<double>(experiment.busWidthBytes);
    result.percentOfFull = 100.0 * result.phi / full;
    return result;
}

} // namespace uatm
