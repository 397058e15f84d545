/**
 * @file
 * Cache silicon-cost model (Alpert & Flynn, the paper's reference
 * [6]): a larger line size reduces the overhead of address tags
 * and control state, making the cache more cost-effective per
 * byte.  Combined with the delay model this answers the question
 * the paper raises in Sec. 2: optimising around hit ratio alone
 * "may not produce a cost-effective system".
 */

#ifndef UATM_LINESIZE_COST_MODEL_HH
#define UATM_LINESIZE_COST_MODEL_HH

#include <cstdint>
#include <string>

#include "cache/config.hh"
#include "linesize/delay_model.hh"
#include "linesize/miss_table.hh"

namespace uatm {

/**
 * Bit-level area model of a set-associative cache.
 */
struct CacheAreaModel
{
    /** Physical address width in bits. */
    std::uint32_t addressBits = 32;

    /** State bits per line (valid + dirty by default). */
    std::uint32_t stateBitsPerLine = 2;

    /** Replacement bits per line (1 approximates LRU/PLRU cost for
     *  small associativity). */
    std::uint32_t replacementBitsPerLine = 1;

    /** OK for a plausible address width (16 to 64 bits);
     *  InvalidArgument otherwise. */
    Status validate() const;

    /** Tag bits per line for the given geometry. */
    std::uint32_t tagBits(const CacheConfig &config) const;

    /** Data bits of the whole cache. */
    std::uint64_t dataBits(const CacheConfig &config) const;

    /** Tag + state + replacement bits of the whole cache. */
    std::uint64_t overheadBits(const CacheConfig &config) const;

    /** Total storage bits. */
    std::uint64_t totalBits(const CacheConfig &config) const;

    /** overhead / total, the Alpert-Flynn waste fraction. */
    double overheadFraction(const CacheConfig &config) const;
};

/** One line size's standing in the cost-effectiveness ranking. */
struct CostEffectivenessPoint
{
    std::uint32_t lineBytes = 0;
    double meanMemoryDelay = 0.0; ///< Eq. 15 at this line size
    std::uint64_t totalBits = 0;  ///< silicon for the same capacity
    double overheadFraction = 0.0;
    /** delay * bits: lower is better (latency-area product). */
    double delayAreaProduct = 0.0;
};

/**
 * Evaluate every line size of @p table at fixed capacity: mean
 * memory delay (Eq. 15) against silicon cost.  The argmin of the
 * delay-area product is the Alpert-Flynn cost-effective choice; it
 * is never smaller than Smith's pure-delay optimum.
 */
std::vector<CostEffectivenessPoint>
costEffectivenessSweep(const MissRatioTable &table,
                       const LineDelayModel &delay,
                       const CacheAreaModel &area,
                       CacheConfig geometry);

/** The line size minimising the delay-area product. */
std::uint32_t costEffectiveLine(const MissRatioTable &table,
                                const LineDelayModel &delay,
                                const CacheAreaModel &area,
                                CacheConfig geometry);

} // namespace uatm

#endif // UATM_LINESIZE_COST_MODEL_HH
