/**
 * @file
 * The paper's Eq. 8: a *static* estimate of the BNL stalling
 * factor computed directly from the reference stream —
 *
 *   phi = (1/Lambda_m) sum_i max((L/D - 1) mu_m - dC_i, 0)/mu_m
 *         + 1
 *
 * where dC_i is the instruction distance from miss i to the first
 * subsequent load/store that would stall against it (an access to
 * the in-flight line, or another miss).  The "+1" is the basic
 * read-miss wait for the requested datum.
 *
 * Eq. 8 approximates elapsed time by instruction count (one cycle
 * per instruction between the miss and the stalling access); the
 * timing engine measures the same quantity dynamically, so the two
 * can be cross-checked — which bench_fig1 and the tests do.
 */

#ifndef UATM_CPU_EQ8_MODEL_HH
#define UATM_CPU_EQ8_MODEL_HH

#include <cstdint>

#include "cache/config.hh"
#include "cpu/stall_feature.hh"
#include "memory/timing.hh"
#include "trace/source.hh"

namespace uatm {

/** Result of an Eq. 8 evaluation. */
struct Eq8Estimate
{
    /** The estimated stalling factor (in units of mu_m). */
    double phi = 0.0;

    /** Misses considered (Lambda_m). */
    std::uint64_t misses = 0;

    /** Misses whose window saw a stalling access. */
    std::uint64_t stalledWindows = 0;
};

/**
 * Evaluate Eq. 8 over (up to) @p max_refs references of @p source.
 *
 * @param feature BL, BNL1, BNL2 or BNL3 — BNL1 is the paper's
 *        printed derivation; the others are the "similar way"
 *        variants it alludes to (BL: any load/store in the window
 *        stalls to completion; BNL2: same-line accesses whose
 *        chunk has arrived proceed; BNL3: the stall lasts only
 *        until the requested chunk).  FS/NB throw
 *        StatusError(InvalidArgument).
 * @param cache   the functional cache the misses come from
 * @param bus_width_bytes D
 * @param mu_m    memory cycle time
 */
Eq8Estimate estimatePhiEq8(TraceSource &source,
                           std::uint64_t max_refs,
                           StallFeature feature,
                           const CacheConfig &cache,
                           std::uint32_t bus_width_bytes,
                           Cycles mu_m);

} // namespace uatm

#endif // UATM_CPU_EQ8_MODEL_HH
