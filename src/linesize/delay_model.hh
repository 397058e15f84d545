/**
 * @file
 * Line-fill delay model used by the line-size study (paper
 * Sec. 5.4): fill time = c + beta * (L/D), with latency c and bus
 * speed beta normalised to the CPU hit cycle, exactly as in Smith's
 * line-size paper.
 */

#ifndef UATM_LINESIZE_DELAY_MODEL_HH
#define UATM_LINESIZE_DELAY_MODEL_HH

#include <string>

#include "util/status.hh"

namespace uatm {

/**
 * Normalised memory-delay parameters.
 *
 * @note c includes the one-cycle cache hit time, so Smith's
 *       latency constant is c' = c - 1 (paper, after Eq. 16).
 */
struct LineDelayModel
{
    /** Access latency in CPU cycles (includes the hit cycle). */
    double c = 7.0;

    /** Bus transfer time in CPU cycles per D-byte bus cycle. */
    double beta = 2.0;

    /** Bus width D in bytes. */
    double busWidth = 4.0;

    /** OK for a physical model; InvalidArgument with the first
     *  violation otherwise (the bus width is checked first, since
     *  fromNanoseconds derives beta from it). */
    Status validate() const;

    /** Time to fill an L-byte line: c + beta * L / D. */
    double fillTime(double line_bytes) const;

    /** Smith's latency constant c' = c - 1. */
    double smithLatency() const { return c - 1.0; }

    /** Mean memory delay per reference at miss ratio MR (Eq. 15):
     *  MR * fillTime(L) + (1 - MR) * 1. */
    double meanMemoryDelay(double miss_ratio,
                           double line_bytes) const;

    /** Smith's objective (Eq. 16): MR * (c' + beta * L / D). */
    double smithObjective(double miss_ratio, double line_bytes) const;

    /**
     * Build from physical parameters: Delay(ns) = latency_ns +
     * ns_per_byte * bytes, normalised by the CPU cycle time.  These
     * are the "Delay = 360ns + 15ns/byte" forms of Figure 6.
     * Throws StatusError(InvalidArgument) for a cycle time that is
     * not positive and finite, for inputs whose c or beta is not a
     * finite number of cycles or whose positive latency or bus time
     * rounds to 0 cycles (naming the inputs), and for a model that
     * fails validate().
     */
    static LineDelayModel fromNanoseconds(double latency_ns,
                                          double ns_per_byte,
                                          double cpu_cycle_ns,
                                          double bus_width_bytes);

    std::string describe() const;
};

} // namespace uatm

#endif // UATM_LINESIZE_DELAY_MODEL_HH
