/**
 * @file
 * Processor stalling features (paper Table 2) and their stalling-
 * factor bounds.
 */

#ifndef UATM_CPU_STALL_FEATURE_HH
#define UATM_CPU_STALL_FEATURE_HH

#include <cstdint>
#include <string>

namespace uatm {

/**
 * How the processor stalls around a cache miss (paper Sec. 3.2):
 *
 *  - FS:   full stalling; wait for the whole line.
 *  - BL:   bus-locked; resume on requested data, but any load/store
 *          before the line completes stalls until it does.
 *  - BNL1: other lines accessible; any access to the in-flight line
 *          stalls until the line completes.
 *  - BNL2: access to an already-arrived part of the in-flight line
 *          proceeds; otherwise stall until the line completes.
 *  - BNL3: stall only until the requested datum arrives.
 *  - NB:   non-blocking; the missing load itself does not stall.
 */
enum class StallFeature : std::uint8_t
{
    FS,
    BL,
    BNL1,
    BNL2,
    BNL3,
    NB,
};

/** Short name as used in the paper's figures. */
const char *stallFeatureName(StallFeature feature);

/**
 * Stalling-factor bounds from Table 2, in units of mu_m, given the
 * line-to-bus ratio L/D.
 */
struct PhiBounds
{
    double min;
    double max;
};

/** Table 2: FS has phi = L/D exactly; BL/BNL in [1, L/D];
 *  NB in [0, L/D]. */
PhiBounds phiBounds(StallFeature feature, double line_over_bus);

} // namespace uatm

#endif // UATM_CPU_STALL_FEATURE_HH
