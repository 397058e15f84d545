/**
 * @file
 * Application characterisation {E, R, R_I, W, alpha} (paper
 * Table 1) and its coupling to hit/miss ratios (Eqs. 1, 4, 5).
 */

#ifndef UATM_CORE_WORKLOAD_HH
#define UATM_CORE_WORKLOAD_HH

#include <cstdint>
#include <string>

#include "cache/cache.hh"
#include "util/status.hh"

namespace uatm {

/**
 * The paper's workload parameters for E executed instructions.
 *
 * All quantities are real-valued: the model is analytic and is
 * routinely evaluated at non-integral operating points.
 */
struct Workload
{
    /** Instructions executed (E). */
    double instructions = 0;

    /** Data bytes read in full bus width on read misses (R).  For
     *  a write-allocate cache this includes write-miss fills. */
    double bytesRead = 0;

    /** Instruction bytes read on I-cache misses (R_I). */
    double instrBytesRead = 0;

    /** Write-around miss instructions using the bus (W); zero for
     *  a write-allocate cache. */
    double writeArounds = 0;

    /** Bus transfers those write-arounds need; equals writeArounds
     *  while every store fits in the bus width (the paper's
     *  assumption), larger when stores exceed D (Table 1's
     *  decomposition).  Zero means "same as writeArounds". */
    double writeAroundTransfers = 0;

    /** Cache line flush ratio alpha in [0, 1]: flushed bytes are
     *  alpha * R. */
    double flushRatio = 0.5;

    /** Total data references Lambda_h + Lambda_m. */
    double dataRefs = 0;

    /** OK when the numbers are consistent at line size
     *  @p line_bytes; InvalidArgument with the first violation
     *  otherwise.  The from*() builders throw it as StatusError. */
    Status validate(double line_bytes) const;

    /** Load/store instructions that miss: Lambda_m = R/L + W
     *  (Eq. 1); W counted in instructions. */
    double lambdaM(double line_bytes) const;

    /** Bus transfers used by write-arounds (for the W mu_m term). */
    double writeTransferCount() const;

    /**
     * Bytes moved over the processor-memory bus per instruction:
     * (R (1 + alpha) + W transfers * D) / E — the traffic metric
     * of Goodman [1], which the paper's Sec. 2 contrasts with
     * hit-ratio-only optimisation.
     */
    double busTrafficPerInstruction(double bus_width_bytes) const;

    /** Load/store instructions that hit: total - Lambda_m. */
    double lambdaH(double line_bytes) const;

    /** Data-cache hit ratio implied by the parameters. */
    double hitRatio(double line_bytes) const;

    /** Miss ratio MR = 1/(s+1) (Eq. 4). */
    double missRatio(double line_bytes) const;

    /** s = Lambda_h / Lambda_m. */
    double hitToMissRatio(double line_bytes) const;

    /**
     * Build a write-allocate workload from a target hit ratio:
     * Lambda_m = (1 - HR) * data_refs, R = Lambda_m * L, W = 0.
     */
    static Workload fromHitRatio(double instructions,
                                 double data_refs, double hit_ratio,
                                 double line_bytes,
                                 double flush_ratio);

    /**
     * Build a write-around workload from a target hit ratio and the
     * fraction of misses that are stores (those become W).
     */
    static Workload fromHitRatioWriteAround(double instructions,
                                            double data_refs,
                                            double hit_ratio,
                                            double line_bytes,
                                            double flush_ratio,
                                            double store_miss_frac);

    /**
     * Summarise a measured cache run in the paper's vocabulary.
     * When @p bus_width_bytes is non-zero, W is expressed in bus
     * transfers (a store wider than the bus costs several memory
     * cycles, Table 1); with zero, W counts store instructions
     * (the paper's size <= D assumption).
     */
    static Workload fromCacheRun(const CacheStats &stats,
                                 std::uint32_t line_bytes,
                                 std::uint32_t bus_width_bytes = 0);

    /** One-line summary. */
    std::string describe(double line_bytes) const;
};

} // namespace uatm

#endif // UATM_CORE_WORKLOAD_HH
