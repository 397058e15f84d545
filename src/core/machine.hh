/**
 * @file
 * Analytic machine description: bus width D, line size L, memory
 * cycle time mu_m, and the pipelined-memory option (paper Eq. 9).
 */

#ifndef UATM_CORE_MACHINE_HH
#define UATM_CORE_MACHINE_HH

#include <string>

#include "util/status.hh"

namespace uatm {

/**
 * The architectural parameters the tradeoff model varies.  Values
 * are real-valued so sweeps and limits (e.g. mu_m -> infinity) can
 * be evaluated anywhere.
 */
struct Machine
{
    /** External data bus width D in bytes. */
    double busWidth = 4;

    /** Cache line size L in bytes; must satisfy L >= D. */
    double lineBytes = 32;

    /** Memory cycle time mu_m, in CPU cycles per D-byte transfer. */
    double cycleTime = 8;

    /** Pipelined memory system (Sec. 4.4). */
    bool pipelined = false;

    /** Pipelined issue interval q (Eq. 9); q = 2 is the paper's
     *  best-case implementation. */
    double pipelineInterval = 2;

    /** OK when the parameters are consistent; InvalidArgument with
     *  the first violation otherwise. */
    Status validate() const;

    /** L/D, the full-stalling factor of Table 2. */
    double lineOverBus() const { return lineBytes / busWidth; }

    /**
     * Time to move one L-byte line: (L/D) mu_m when not pipelined,
     * mu_p = mu_m + q(L/D - 1) when pipelined (Eq. 9).
     */
    double lineTransferTime() const;

    // The withX() copies throw StatusError when the resulting
    // machine would be inconsistent (e.g. doubling the bus past the
    // line size), so a sweep point at a boundary degrades to an
    // error row instead of killing the run.

    /** A copy with the bus (and memory path) width doubled. */
    Machine withDoubledBus() const;

    /** A copy with pipelining enabled at interval @p q. */
    Machine withPipelining(double q) const;

    /** A copy with a different memory cycle time. */
    Machine withCycleTime(double mu_m) const;

    std::string describe() const;
};

} // namespace uatm

#endif // UATM_CORE_MACHINE_HH
