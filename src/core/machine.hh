/**
 * @file
 * Analytic machine description: bus width D, line size L, memory
 * cycle time mu_m, the pipelined-memory option (paper Eq. 9) and
 * the issue width k.
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

    /**
     * Issue width k >= 1, the multiple-issue machine the paper's
     * Summary leaves as future work; k = 1 is the paper's machine.
     * The non-missing instructions retire k per cycle, so Eq. 2's
     * base term costs the hit time 1/k per instruction and Eq. 3
     * subtracts 1/k, the hit time a miss displaces:
     * r_k = (A - 1/k)/(B - 1/k).  Two consequences follow:
     *
     *  - since A > B, r_k decreases monotonically with k and tends
     *    to the pure cost ratio A/B: a wider-issue machine trades
     *    slightly less hit ratio per feature, because each
     *    displaced hit was cheaper;
     *  - a crossover between features priced against the same base
     *    (pipelined memory vs bus doubling) does not depend on k:
     *    r equality reduces to B equality, and the hit time
     *    cancels.
     */
    double issueWidth = 1;

    /** OK when the parameters are consistent; InvalidArgument with
     *  the first violation otherwise. */
    Status validate() const;

    /** The hit time 1/k in CPU cycles: what a non-missing
     *  instruction costs, and what a miss displaces (Eq. 3). */
    double hitTime() const { return 1.0 / issueWidth; }

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
