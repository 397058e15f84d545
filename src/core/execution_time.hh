/**
 * @file
 * The CPU execution-time model (paper Eq. 2) and the mean memory
 * delay it induces (Sec. 4.5).
 *
 * X = (E - Lambda_m) + (R/L) * phi * mu_m + (alpha R / D) * mu_m
 *     + W * mu_m
 *
 * with the flush term removed when read-bypassing write buffers
 * hide it, per-line transfer times replaced by mu_p for a
 * pipelined memory system, and the base term (E - Lambda_m) scaled
 * by the hit time 1/k at issue width k (Machine::issueWidth); the
 * memory terms are wall-clock latencies and do not scale.
 */

#ifndef UATM_CORE_EXECUTION_TIME_HH
#define UATM_CORE_EXECUTION_TIME_HH

#include "core/machine.hh"
#include "core/workload.hh"
#include "cpu/stall_feature.hh"

namespace uatm {

/** Knobs of the analytic execution-time evaluation. */
struct ExecutionModelOptions
{
    /** Read-bypassing write buffers hide the flush term entirely
     *  (the paper's best-case write-buffer model, Table 3). */
    bool writeBuffers = false;

    /** Include the instruction-fetch term (R_I/L) * phi_I * mu_m
     *  (Sec. 3.4); phi_I is the full L/D when enabled. */
    bool includeInstructionFetch = false;
};

/**
 * Per-miss read stall in CPU cycles for a given stalling factor.
 * Non-pipelined: phi * mu_m.  Pipelined full-stalling: mu_p.
 */
double missPenalty(const Machine &machine, double phi);

/**
 * Eq. 2 generalised: execution time X in CPU cycles.
 *
 * @param workload the application {E, R, W, alpha}
 * @param machine  bus/line/memory timing
 * @param phi      stalling factor of the read-miss path; use
 *                 machine.lineOverBus() for a full-stalling cache.
 *                 Ignored (the full line transfer is used) when the
 *                 machine is pipelined, matching Sec. 4.4 which
 *                 pipelines full-blocking caches.
 */
double executionTime(const Workload &workload, const Machine &machine,
                     double phi,
                     const ExecutionModelOptions &options = {});

/** Eq. 2 for a full-stalling cache (phi = L/D). */
double executionTimeFS(const Workload &workload,
                       const Machine &machine,
                       const ExecutionModelOptions &options = {});

/**
 * Mean memory delay per data reference (Sec. 4.5):
 * (X - N_LS) / (Lambda_h + Lambda_m) = (X - E h)/refs + h with the
 * hit time h = machine.hitTime(), i.e. it includes the hit times
 * (one cycle each on the paper's machine), so systems with equal E,
 * refs, h and X always have equal mean delay.
 */
double meanMemoryDelay(const Workload &workload,
                       const Machine &machine, double phi,
                       const ExecutionModelOptions &options = {});

} // namespace uatm

#endif // UATM_CORE_EXECUTION_TIME_HH
