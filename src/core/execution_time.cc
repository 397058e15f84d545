/**
 * @file
 * Implementation of the execution-time model.
 */

#include "core/execution_time.hh"

#include "util/logging.hh"

namespace uatm {

double
missPenalty(const Machine &machine, double phi)
{
    if (machine.pipelined) {
        // Sec. 4.4: the pipelined system is evaluated for full
        // blocking caches; the per-miss stall is mu_p.
        return machine.lineTransferTime();
    }
    return phi * machine.cycleTime;
}

double
executionTime(const Workload &workload, const Machine &machine,
              double phi, const ExecutionModelOptions &options)
{
    okOrThrow(machine.validate());
    okOrThrow(workload.validate(machine.lineBytes));
    UATM_ASSERT(phi >= 0.0, "stalling factor must be non-negative");

    const double L = machine.lineBytes;
    const double lambda_m = workload.lambdaM(L);
    const double line_misses = workload.bytesRead / L;

    // Base: every instruction but the missing load/stores takes the
    // hit time, one cycle at issue width 1.
    double x = (workload.instructions - lambda_m) * machine.hitTime();

    // Read-miss stalls.
    x += line_misses * missPenalty(machine, phi);

    // Flush stalls, unless write buffers hide them.  Each flushed
    // line costs one full line transfer: (alpha R / D) mu_m when
    // not pipelined, (alpha R / L) mu_p when pipelined.
    if (!options.writeBuffers) {
        const double flushed_lines =
            workload.flushRatio * workload.bytesRead / L;
        x += flushed_lines * machine.lineTransferTime();
    }

    // Write-around misses: one memory cycle per bus transfer
    // (equal to W when every store fits in the bus width).
    x += workload.writeTransferCount() * machine.cycleTime;

    // Optional instruction-fetch term (Sec. 3.4), full blocking.
    if (options.includeInstructionFetch && workload.instrBytesRead > 0)
        x += workload.instrBytesRead / L * machine.lineTransferTime();

    return x;
}

double
executionTimeFS(const Workload &workload, const Machine &machine,
                const ExecutionModelOptions &options)
{
    return executionTime(workload, machine, machine.lineOverBus(),
                         options);
}

double
meanMemoryDelay(const Workload &workload, const Machine &machine,
                double phi, const ExecutionModelOptions &options)
{
    // Sec. 4.5: the mean memory delay per data reference is
    // (X - N_LS) / (Lambda_h + Lambda_m), where the numerator keeps
    // the hit times h: (X - E h)/refs + h, with h = 1 on the paper's
    // machine.  Two systems with equal E, refs, h and X therefore
    // always have equal mean delay.
    const double h = machine.hitTime();
    const double x = executionTime(workload, machine, phi, options);
    return (x - workload.instructions * h) / workload.dataRefs + h;
}

} // namespace uatm
